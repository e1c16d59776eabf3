package multigrid

import (
	"math"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/geom"
	"eul3d/internal/mesh"
	"eul3d/internal/refine"
)

// sameOp reports whether a and b hold the same addresses and the same
// weight bits.
func sameOp(a, b *TransferOp) bool {
	if len(a.Addr) != len(b.Addr) || len(a.Wt) != len(b.Wt) {
		return false
	}
	for v := range a.Addr {
		if a.Addr[v] != b.Addr[v] {
			return false
		}
		for k := range a.Wt[v] {
			if math.Float64bits(a.Wt[v][k]) != math.Float64bits(b.Wt[v][k]) {
				return false
			}
		}
	}
	return true
}

// TestTransfersMatchPairwise holds every operator Transfers builds side by
// side to the pairwise BuildTransfer of its two meshes, bit for bit: on a
// 4-level channel sequence, and on a 2-level one whose fine mesh is
// selectively refined (vertex numbering and tet order no generator makes).
func TestTransfersMatchPairwise(t *testing.T) {
	seq := sequence(t, 16, 8, 6, 4)
	marked := make([]bool, seq[0].NT())
	for i := 0; i < len(marked); i += 5 {
		marked[i] = true
	}
	r, err := refine.Selective(seq[0], marked)
	if err != nil {
		t.Fatal(err)
	}
	for name, meshes := range map[string][]*mesh.Mesh{
		"channel-4":      seq,
		"refined-fine-2": {r.Mesh, seq[1]},
	} {
		restrict, prolong, err := Transfers(meshes)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(restrict) != len(meshes) || len(prolong) != len(meshes) || restrict[0] != nil || prolong[0] != nil {
			t.Fatalf("%s: want %d operators a side, nil on the finest level", name, len(meshes))
		}
		for l := 1; l < len(meshes); l++ {
			want, err := BuildTransfer(meshes[l], meshes[l-1])
			if err != nil {
				t.Fatal(err)
			}
			if !sameOp(restrict[l], want) {
				t.Errorf("%s: restrict %d->%d differs from BuildTransfer", name, l-1, l)
			}
			if want, err = BuildTransfer(meshes[l-1], meshes[l]); err != nil {
				t.Fatal(err)
			}
			if !sameOp(prolong[l], want) {
				t.Errorf("%s: prolong %d->%d differs from BuildTransfer", name, l, l-1)
			}
		}
	}
}

// TestTransfersReportFirstFailureInLevelOrder gives Transfers sequences
// with failing builds on more than one level, the later one failing at
// once and the earlier one only after a brute-force search over every
// tet, and expects the earliest level's message every time.
func TestTransfersReportFirstFailureInLevelOrder(t *testing.T) {
	seq := sequence(t, 24, 12, 8, 2)
	// Every tet of flat has zero volume: locating a vertex in it walks
	// nowhere and then tries all of them before failing.
	flat := &mesh.Mesh{X: make([]geom.Vec3, seq[0].NV()), Tets: seq[0].Tets}
	empty := &mesh.Mesh{}
	cases := []struct {
		meshes []*mesh.Mesh
		want   string
	}{
		{[]*mesh.Mesh{seq[0], flat, empty}, "prolong 1->0: multigrid: all source tets degenerate"},
		{[]*mesh.Mesh{seq[0], seq[1], empty}, "prolong 2->1: multigrid: source mesh has no tets"},
		{[]*mesh.Mesh{flat, seq[1], empty, empty}, "restrict 0->1: multigrid: all source tets degenerate"},
	}
	for rep := 0; rep < 10; rep++ {
		for _, c := range cases {
			restrict, prolong, err := Transfers(c.meshes)
			if err == nil || err.Error() != c.want {
				t.Fatalf("got %v, want %q", err, c.want)
			}
			if restrict != nil || prolong != nil {
				t.Fatal("operators returned beside an error")
			}
		}
	}
	// The engines keep their messages: the level pair, then the cause.
	_, err := New(cases[0].meshes, euler.DefaultParams(0.5, 0), 2)
	if want := "multigrid: " + cases[0].want; err == nil || err.Error() != want {
		t.Errorf("New: got %v, want %q", err, want)
	}
}
