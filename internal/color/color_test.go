package color

import (
	"math/rand"
	"slices"
	"testing"

	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/refine"
)

// refinedMesh builds a channel mesh and selectively refines a deterministic
// mark set: an edge list that is first-encounter ordered but no longer a
// lattice's.
func refinedMesh(t *testing.T) *mesh.Mesh {
	t.Helper()
	m, err := meshgen.Channel(meshgen.ChannelSpec{NX: 5, NY: 3, NZ: 2, LX: 3, LY: 1, LZ: 1})
	if err != nil {
		t.Fatal(err)
	}
	marked := make([]bool, m.NT())
	for i := 0; i < len(marked); i += 7 {
		marked[i] = true
	}
	r, err := refine.Selective(m, marked)
	if err != nil {
		t.Fatal(err)
	}
	return r.Mesh
}

func triples(m *mesh.Mesh) [][3]int32 {
	f := make([][3]int32, len(m.BFaces))
	for i := range f {
		f[i] = m.BFaces[i].V
	}
	return f
}

func randomEdges(rng *rand.Rand, nv, ne int) [][2]int32 {
	edges := make([][2]int32, 0, ne)
	for k := 0; k < ne; k++ {
		a, b := int32(rng.Intn(nv)), int32(rng.Intn(nv))
		if a != b {
			edges = append(edges, [2]int32{a, b})
		}
	}
	return edges
}

func randomFaces(rng *rand.Rand, nv, nf int) [][3]int32 {
	faces := make([][3]int32, 0, nf)
	for k := 0; k < nf; k++ {
		a, b, c := int32(rng.Intn(nv)), int32(rng.Intn(nv)), int32(rng.Intn(nv))
		if a != b && b != c && a != c {
			faces = append(faces, [3]int32{a, b, c})
		}
	}
	return faces
}

// perElementGreedy is the paper's coloring stated the slow, obvious way —
// each element, in order, takes the lowest color none of its vertices holds
// — as the oracle for Greedy and GreedyFaces.
func perElementGreedy[E elem](nv int, elems []E) *Coloring {
	held := make([]map[int32]bool, nv)
	colorOf := make([]int32, len(elems))
	nc := int32(0)
	for ei, e := range elems {
		c := int32(0)
		for k := 0; k < len(e); k++ {
			if held[e[k]][c] {
				c, k = c+1, -1
			}
		}
		for k := 0; k < len(e); k++ {
			if held[e[k]] == nil {
				held[e[k]] = map[int32]bool{}
			}
			held[e[k]][c] = true
		}
		colorOf[ei] = c
		nc = max(nc, c+1)
	}
	col := &Coloring{Start: make([]int32, nc+1)}
	for g := int32(0); g < nc; g++ {
		for ei, c := range colorOf {
			if c == g {
				col.Order = append(col.Order, int32(ei))
			}
		}
		col.Start[g+1] = int32(len(col.Order))
	}
	return col
}

// samePerElementGreedy checks that Greedy and GreedyFaces color edges and
// faces as the per-element greedy oracle does, group for group and slot
// for slot.
func samePerElementGreedy(t *testing.T, name string, nv int, edges [][2]int32, faces [][3]int32) {
	t.Helper()
	same := func(kind string, got, want *Coloring) {
		t.Helper()
		if !slices.Equal(got.Order, want.Order) || !slices.Equal(got.Start, want.Start) {
			t.Fatalf("%s %s: not the per-element greedy coloring", name, kind)
		}
	}
	ec, err := Greedy(nv, edges)
	if err != nil {
		t.Fatal(err)
	}
	same("edges", ec, perElementGreedy(nv, edges))
	fc, err := GreedyFaces(nv, faces)
	if err != nil {
		t.Fatal(err)
	}
	same("faces", fc, perElementGreedy(nv, faces))
}

// TestBlockedOneIsGreedy pins what the C90 model and its tables rest on:
// the coloring of blocks of one element, which is what Greedy and
// GreedyFaces return, is the per-element greedy coloring on a generated
// mesh's edges and boundary faces and on random lists over its vertices.
func TestBlockedOneIsGreedy(t *testing.T) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(8, 6, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	samePerElementGreedy(t, "channel", m.NV(), m.Edges, triples(m))
	rng := rand.New(rand.NewSource(3))
	samePerElementGreedy(t, "random", m.NV(), randomEdges(rng, m.NV(), 900), randomFaces(rng, m.NV(), 300))
}

// TestBlockedValidOnRefinedMesh colors the mesh an adaptive epoch hands
// the solver, whose edge list is first-encounter ordered but no longer a
// lattice's: the coloring verifies and is the per-element greedy one.
func TestBlockedValidOnRefinedMesh(t *testing.T) {
	m := refinedMesh(t)
	c, err := Greedy(m.NV(), m.Edges)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(c, m.NV(), m.Edges); err != nil {
		t.Fatal(err)
	}
	f, err := GreedyFaces(m.NV(), triples(m))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyFaces(f, m.NV(), triples(m)); err != nil {
		t.Fatal(err)
	}
	samePerElementGreedy(t, "refined", m.NV(), m.Edges, triples(m))
}

// TestBlockedStar: every edge of a star shares the hub, so every edge
// needs a group of its own — 100 of them, past the 64 a vertex's bitmask
// holds — in the order the oracle gives.
func TestBlockedStar(t *testing.T) {
	const spokes = 100
	edges := make([][2]int32, spokes)
	for i := range edges {
		edges[i] = [2]int32{0, int32(i + 1)}
	}
	c, err := Greedy(spokes+1, edges)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumColors() != spokes {
		t.Errorf("%d groups, want %d", c.NumColors(), spokes)
	}
	for g := 0; g < c.NumColors(); g++ {
		if got := c.Group(g); len(got) != 1 || got[0] != int32(g) {
			t.Fatalf("group %d holds %v, want edge %d alone", g, got, g)
		}
	}
	samePerElementGreedy(t, "star", spokes+1, edges, nil)
}

func TestGreedyOnMesh(t *testing.T) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(8, 6, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Greedy(m.NV(), m.Edges)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(c, m.NV(), m.Edges); err != nil {
		t.Fatal(err)
	}
	if nc := c.NumColors(); nc < 10 || nc > 64 {
		t.Errorf("colors = %d, expected a few tens on a tet mesh", nc)
	}
	total := 0
	for _, s := range c.GroupSizes() {
		total += s
	}
	if total != m.NE() {
		t.Errorf("group sizes sum to %d, want %d", total, m.NE())
	}
}

func TestGreedySmall(t *testing.T) {
	// Triangle: three mutually adjacent edges need three colors.
	edges := [][2]int32{{0, 1}, {1, 2}, {0, 2}}
	c, err := Greedy(3, edges)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumColors() != 3 {
		t.Errorf("triangle colors = %d, want 3", c.NumColors())
	}
	if err := Verify(c, 3, edges); err != nil {
		t.Error(err)
	}
}

func TestGreedyStar(t *testing.T) {
	// Star K(1,5): all edges share the hub, so five colors, one edge each.
	edges := [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}
	c, err := Greedy(6, edges)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumColors() != 5 {
		t.Errorf("star colors = %d, want 5", c.NumColors())
	}
	for g := 0; g < 5; g++ {
		if len(c.Group(g)) != 1 {
			t.Errorf("group %d has %d edges", g, len(c.Group(g)))
		}
	}
}

func TestGreedyMatching(t *testing.T) {
	// Disjoint edges form a matching: one color.
	edges := [][2]int32{{0, 1}, {2, 3}, {4, 5}}
	c, err := Greedy(6, edges)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumColors() != 1 {
		t.Errorf("matching colors = %d, want 1", c.NumColors())
	}
}

func TestGreedyRejectsBadEdges(t *testing.T) {
	if _, err := Greedy(3, [][2]int32{{0, 1}, {-1, 2}}); err == nil {
		t.Error("negative vertex accepted")
	}
	if _, err := Greedy(3, [][2]int32{{0, 7}}); err == nil {
		t.Error("accepted out-of-range edge")
	}
	if _, err := Greedy(3, [][2]int32{{1, 1}}); err == nil {
		t.Error("accepted self-loop")
	}
}

// TestBlockedRejectsBadInput: boundary faces with a vertex out of range or
// repeated in any position are refused, as bad edges are.
func TestBlockedRejectsBadInput(t *testing.T) {
	for name, faces := range map[string][][3]int32{
		"out of range":   {{0, 1, 2}, {1, 2, 3}},
		"negative":       {{0, 1, 2}, {-1, 1, 2}},
		"repeated first": {{0, 0, 1}},
		"repeated last":  {{0, 1, 1}},
		"repeated ends":  {{0, 1, 0}},
	} {
		if _, err := GreedyFaces(3, faces); err == nil {
			t.Errorf("%s face accepted", name)
		}
	}
	if _, err := Greedy(3, [][2]int32{{0, 1}, {2, 2}}); err == nil {
		t.Error("self-loop after a good edge accepted")
	}
}

func TestGreedyManyColors(t *testing.T) {
	// A star with 100 leaves exercises the >=64-color fallback path.
	n := 101
	edges := make([][2]int32, 100)
	for i := range edges {
		edges[i] = [2]int32{0, int32(i + 1)}
	}
	c, err := Greedy(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumColors() != 100 {
		t.Errorf("colors = %d, want 100", c.NumColors())
	}
	if err := Verify(c, n, edges); err != nil {
		t.Error(err)
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	edges := [][2]int32{{0, 1}, {1, 2}}
	// Both edges in one group share vertex 1.
	bad := &Coloring{Order: []int32{0, 1}, Start: []int32{0, 2}}
	if err := Verify(bad, 3, edges); err == nil {
		t.Error("Verify accepted a conflicting group")
	}
	// Duplicated edge index.
	dup := &Coloring{Order: []int32{0, 0}, Start: []int32{0, 1, 2}}
	if err := Verify(dup, 3, edges); err == nil {
		t.Error("Verify accepted duplicate edge")
	}
	// Wrong length.
	short := &Coloring{Order: []int32{0}, Start: []int32{0, 1}}
	if err := Verify(short, 3, edges); err == nil {
		t.Error("Verify accepted short order")
	}
	// Out-of-range edge index.
	oor := &Coloring{Order: []int32{0, 5}, Start: []int32{0, 1, 2}}
	if err := Verify(oor, 3, edges); err == nil {
		t.Error("Verify accepted out-of-range index")
	}
}
