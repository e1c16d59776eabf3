package meshgen

import (
	"math"
	"strings"
	"testing"

	"eul3d/internal/geom"
	"eul3d/internal/mesh"
)

func TestChannelCounts(t *testing.T) {
	spec := DefaultChannel(4, 3, 2, 1)
	m, err := Channel(spec)
	if err != nil {
		t.Fatal(err)
	}
	wantNV := 5 * 4 * 3
	wantNT := 6 * 4 * 3 * 2
	if m.NV() != wantNV || m.NT() != wantNT {
		t.Errorf("nv=%d (want %d) nt=%d (want %d)", m.NV(), wantNV, m.NT(), wantNT)
	}
	// Each boundary quad splits into 2 triangles.
	wantBF := 2 * (2*3*2 + 2*4*2 + 2*4*3)
	if len(m.BFaces) != wantBF {
		t.Errorf("boundary faces = %d, want %d", len(m.BFaces), wantBF)
	}
}

func TestChannelValid(t *testing.T) {
	for _, jit := range []float64{0, 0.12} {
		spec := DefaultChannel(6, 4, 3, 42)
		spec.Jitter = jit
		m, err := Channel(spec)
		if err != nil {
			t.Fatalf("jitter %v: %v", jit, err)
		}
		if err := m.Validate(1e-10); err != nil {
			t.Errorf("jitter %v: %v", jit, err)
		}
	}
}

func TestChannelNoBumpVolume(t *testing.T) {
	spec := DefaultChannel(5, 4, 3, 3)
	spec.BumpHeight = 0
	spec.Jitter = 0
	m, err := Channel(spec)
	if err != nil {
		t.Fatal(err)
	}
	tot := 0.0
	for _, v := range m.Vol {
		tot += v
	}
	want := spec.LX * spec.LY * spec.LZ
	if math.Abs(tot-want) > 1e-12*want {
		t.Errorf("total volume %g, want %g", tot, want)
	}
}

func TestBumpReducesVolume(t *testing.T) {
	spec := DefaultChannel(12, 6, 2, 3)
	spec.Jitter = 0
	m, err := Channel(spec)
	if err != nil {
		t.Fatal(err)
	}
	tot := 0.0
	for _, v := range m.Vol {
		tot += v
	}
	box := spec.LX * spec.LY * spec.LZ
	if tot >= box {
		t.Errorf("bump channel volume %g not smaller than box %g", tot, box)
	}
	if tot < 0.9*box {
		t.Errorf("bump removed too much volume: %g of %g", tot, box)
	}
}

func TestBoundaryKinds(t *testing.T) {
	spec := DefaultChannel(4, 3, 2, 5)
	m, err := Channel(spec)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[mesh.BCKind]int{}
	for _, f := range m.BFaces {
		counts[f.Kind]++
	}
	if counts[mesh.FarField] != 2*2*3*2 {
		t.Errorf("farfield faces = %d", counts[mesh.FarField])
	}
	if counts[mesh.Wall] != 2*2*4*2 {
		t.Errorf("wall faces = %d", counts[mesh.Wall])
	}
	if counts[mesh.Symmetry] != 2*2*4*3 {
		t.Errorf("symmetry faces = %d", counts[mesh.Symmetry])
	}
}

func TestBoundaryNormalsOutward(t *testing.T) {
	spec := DefaultChannel(4, 4, 4, 9)
	m, err := Channel(spec)
	if err != nil {
		t.Fatal(err)
	}
	center := geom.Vec3{X: spec.LX / 2, Y: spec.LY / 2, Z: spec.LZ / 2}
	for _, f := range m.BFaces {
		c := geom.TriCentroid(m.X[f.V[0]], m.X[f.V[1]], m.X[f.V[2]])
		if f.Normal.Dot(c.Sub(center)) <= 0 {
			t.Fatalf("boundary face %v normal not outward", f.V)
		}
	}
}

func TestSequenceNonNested(t *testing.T) {
	spec := DefaultChannel(8, 4, 4, 11)
	seq, err := Sequence(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 3 {
		t.Fatalf("levels = %d", len(seq))
	}
	for l := 1; l < len(seq); l++ {
		if seq[l].NV() >= seq[l-1].NV() {
			t.Errorf("level %d not coarser: %d vs %d vertices", l, seq[l].NV(), seq[l-1].NV())
		}
	}
	// Every level is a valid standalone mesh.
	for l, m := range seq {
		if err := m.Validate(1e-10); err != nil {
			t.Errorf("level %d: %v", l, err)
		}
	}
}

func TestSequenceFloorsAtTwoCells(t *testing.T) {
	spec := DefaultChannel(4, 2, 2, 1)
	seq, err := Sequence(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	last := seq[len(seq)-1]
	if last.NV() < 3*3*3 {
		t.Errorf("coarsest level too small: %d vertices", last.NV())
	}
}

func TestBadSpecs(t *testing.T) {
	if _, err := Channel(ChannelSpec{NX: 0, NY: 1, NZ: 1, LX: 1, LY: 1, LZ: 1}); err == nil {
		t.Error("Channel accepted zero cells")
	}
	if _, err := Sequence(DefaultChannel(2, 2, 2, 1), 0); err == nil {
		t.Error("Sequence accepted zero levels")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Channel(DefaultChannel(5, 3, 3, 77))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Channel(DefaultChannel(5, 3, 3, 77))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatal("same seed produced different meshes")
		}
	}
	c, err := Channel(DefaultChannel(5, 3, 3, 78))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.X {
		if a.X[i] != c.X[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical meshes")
	}
}

func TestExtremeJitterRetries(t *testing.T) {
	// Absurd jitter must not produce an inverted mesh: the generator
	// halves the amplitude until every tet is positively oriented.
	spec := DefaultChannel(5, 4, 3, 13)
	spec.Jitter = 0.9
	m, err := Channel(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestSteepBumpRejected(t *testing.T) {
	// A bump taller than the channel shears cells inside out beyond
	// repair; the generator must fail cleanly rather than emit garbage.
	spec := DefaultChannel(6, 4, 3, 1)
	spec.BumpHeight = 40
	spec.Jitter = 0
	if _, err := Channel(spec); err == nil {
		t.Error("accepted an impossible bump")
	}
}

// sameBits reports whether a and b hold the same float64 bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// coords flattens vectors to their components.
func coords(v []geom.Vec3) []float64 {
	out := make([]float64, 0, 3*len(v))
	for _, x := range v {
		out = append(out, x.X, x.Y, x.Z)
	}
	return out
}

// sameMesh reports whether a and b have the same X, Tets, Edges, EdgeNorm,
// Vol and BFaces, floats compared by their bits.
func sameMesh(a, b *mesh.Mesh) bool {
	if len(a.Tets) != len(b.Tets) || len(a.Edges) != len(b.Edges) || len(a.BFaces) != len(b.BFaces) {
		return false
	}
	for i := range a.Tets {
		if a.Tets[i] != b.Tets[i] {
			return false
		}
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			return false
		}
	}
	na, nb := make([]geom.Vec3, len(a.BFaces)), make([]geom.Vec3, len(b.BFaces))
	for i := range a.BFaces {
		if a.BFaces[i].V != b.BFaces[i].V || a.BFaces[i].Kind != b.BFaces[i].Kind {
			return false
		}
		na[i], nb[i] = a.BFaces[i].Normal, b.BFaces[i].Normal
	}
	return sameBits(coords(a.X), coords(b.X)) && sameBits(coords(a.EdgeNorm), coords(b.EdgeNorm)) &&
		sameBits(a.Vol, b.Vol) && sameBits(coords(na), coords(nb))
}

// TestSequenceMatchesChannels holds every level Sequence generates beside
// the others to Channel of that level's spec, generated alone, bit for bit.
func TestSequenceMatchesChannels(t *testing.T) {
	spec := DefaultChannel(16, 8, 6, 5)
	for _, levels := range []int{1, 4} {
		seq, err := Sequence(spec, levels)
		if err != nil {
			t.Fatal(err)
		}
		s := spec
		for l, got := range seq {
			s.Seed = spec.Seed + int64(1000*l)
			want, err := Channel(s)
			if err != nil {
				t.Fatal(err)
			}
			if !sameMesh(got, want) {
				t.Errorf("%d levels: level %d differs from Channel of its spec", levels, l)
			}
			s.NX, s.NY, s.NZ = max(s.NX/2, 2), max(s.NY/2, 2), max(s.NZ/2, 2)
		}
	}
}

// TestSequenceReportsFirstFailingLevel fails every level — the coarse ones,
// being smaller, first — and expects level 0's message.
func TestSequenceReportsFirstFailingLevel(t *testing.T) {
	spec := DefaultChannel(12, 8, 6, 1)
	spec.BumpHeight = 40
	spec.Jitter = 0
	for rep := 0; rep < 10; rep++ {
		_, err := Sequence(spec, 3)
		if err == nil || !strings.HasPrefix(err.Error(), "meshgen: level 0: ") {
			t.Fatalf("got %v, want level 0's failure", err)
		}
	}
}
