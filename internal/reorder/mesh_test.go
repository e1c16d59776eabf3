package reorder

import (
	"math"
	"slices"
	"sort"
	"testing"

	"eul3d/internal/graph"
	"eul3d/internal/meshgen"
)

func TestApplyToMeshPreservesGeometry(t *testing.T) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(6, 4, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(m.NV(), m.Edges)
	if err != nil {
		t.Fatal(err)
	}
	perm := CuthillMcKee(g, true)
	r, err := ApplyToMesh(m, perm)
	if err != nil {
		t.Fatal(err)
	}
	if r.NV() != m.NV() || r.NT() != m.NT() || r.NE() != m.NE() {
		t.Fatalf("counts changed: %d/%d/%d", r.NV(), r.NT(), r.NE())
	}
	// Total volume and per-vertex dual volumes (under the permutation)
	// must be preserved exactly.
	inv := InversePerm(perm)
	for old := range m.Vol {
		if m.Vol[old] != r.Vol[inv[old]] {
			t.Fatalf("dual volume of old vertex %d changed", old)
		}
	}
	if err := r.Validate(1e-10); err != nil {
		t.Fatal(err)
	}
}

func TestApplyToMeshRejectsBadPerm(t *testing.T) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(3, 3, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyToMesh(m, []int32{0, 1, 2}); err == nil {
		t.Error("accepted short permutation")
	}
}

func TestRCMMeshReducesBandwidth(t *testing.T) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(10, 6, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Scramble first so RCM has something to fix.
	sm, err := Scramble(m, 17)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := RCMMesh(sm)
	if err != nil {
		t.Fatal(err)
	}
	gBefore, _ := graph.FromEdges(sm.NV(), sm.Edges)
	gAfter, _ := graph.FromEdges(rm.NV(), rm.Edges)
	if gAfter.Bandwidth() >= gBefore.Bandwidth() {
		t.Errorf("RCM did not reduce bandwidth: %d -> %d", gBefore.Bandwidth(), gAfter.Bandwidth())
	}
}

// TestScramble: the scrambled mesh is the same mesh — counts, total and
// sorted dual volumes, validity — in an order that has lost its locality,
// and the seed decides which.
func TestScramble(t *testing.T) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(10, 6, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Scramble(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.NV() != m.NV() || a.NT() != m.NT() || a.NE() != m.NE() || len(a.BFaces) != len(m.BFaces) {
		t.Fatalf("counts changed: %d/%d/%d/%d", a.NV(), a.NT(), a.NE(), len(a.BFaces))
	}
	if err := a.Validate(1e-10); err != nil {
		t.Fatal(err)
	}
	volM, volA := append([]float64(nil), m.Vol...), append([]float64(nil), a.Vol...)
	sort.Float64s(volM)
	sort.Float64s(volA)
	for i := range volM {
		if math.Abs(volM[i]-volA[i]) > 1e-15 {
			t.Fatalf("sorted dual volume %d: %g vs %g", i, volM[i], volA[i])
		}
	}
	span := func(edges [][2]int32) (sum int) {
		for _, e := range edges {
			sum += int(max(e[0]-e[1], e[1]-e[0]))
		}
		return sum / len(edges)
	}
	if span(a.Edges) < 2*span(m.Edges) {
		t.Errorf("mean |i-j| over edges: %d generated, %d scrambled", span(m.Edges), span(a.Edges))
	}
	again, err := Scramble(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Scramble(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Edges, again.Edges) || slices.Equal(a.Edges, other.Edges) {
		t.Error("the edge list is not a function of the seed")
	}
}
