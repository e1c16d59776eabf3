package color

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

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
// — as the oracle for the degenerate block coloring.
func perElementGreedy[E Elem](nv int, elems []E) *Coloring {
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

// TestBlockedOneIsGreedy pins the degenerate case the conformance suites
// and the C90 model rest on: with runs of one element the block coloring —
// which is what Greedy and GreedyFaces return — is the per-element greedy
// coloring, group for group and slot for slot.
func TestBlockedOneIsGreedy(t *testing.T) {
	same := func(name string, bl *Blocks, got, want *Coloring) {
		t.Helper()
		if !slices.Equal(got.Order, want.Order) || !slices.Equal(got.Start, want.Start) {
			t.Fatalf("%s: not the per-element greedy coloring", name)
		}
		if !slices.Equal(bl.Order, want.Order) || !slices.Equal(bl.Start, want.Start) {
			t.Fatalf("%s: Blocked(…, 1) is not the per-element greedy coloring", name)
		}
		for i, at := range bl.Run {
			if int(at) != i {
				t.Fatalf("%s: run %d starts at %d", name, i, at)
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	ch, err := meshgen.Channel(meshgen.DefaultChannel(8, 6, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*mesh.Mesh{"channel": ch, "refined": refinedMesh(t)} {
		for _, in := range []struct {
			kind  string
			edges [][2]int32
			faces [][3]int32
		}{{"mesh", m.Edges, triples(m)}, {"random", randomEdges(rng, m.NV(), 900), randomFaces(rng, m.NV(), 300)}} {
			ec, err := Greedy(m.NV(), in.edges)
			if err != nil {
				t.Fatal(err)
			}
			eb, err := Blocked(m.NV(), in.edges, 1)
			if err != nil {
				t.Fatal(err)
			}
			same(name+"/"+in.kind+" edges", eb, ec, perElementGreedy(m.NV(), in.edges))
			fc, err := GreedyFaces(m.NV(), in.faces)
			if err != nil {
				t.Fatal(err)
			}
			fb, err := Blocked(m.NV(), in.faces, 1)
			if err != nil {
				t.Fatal(err)
			}
			same(name+"/"+in.kind+" faces", fb, fc, perElementGreedy(m.NV(), in.faces))
		}
	}
}

// TestQuickBlocksAlwaysValid block-colors random edge and face lists at
// run lengths from one element to the whole list and checks the structure
// through VerifyBlocks.
func TestQuickBlocksAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 3 + rng.Intn(80)
		edges := randomEdges(rng, nv, rng.Intn(400))
		faces := randomFaces(rng, nv, rng.Intn(200))
		for _, b := range []int{1, 3, 64, max(1, len(edges))} {
			eb, err := Blocked(nv, edges, b)
			if err != nil || VerifyBlocks(eb, nv, edges) != nil {
				return false
			}
			fb, err := Blocked(nv, faces, b)
			if err != nil || VerifyBlocks(fb, nv, faces) != nil {
				return false
			}
			if want := (len(edges) + b - 1) / b; eb.NumRuns() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBlockedStar: every edge of a star shares the hub, so every run needs
// a group of its own — 100 of them at runs of one, past the 64 a vertex's
// bitmask holds.
func TestBlockedStar(t *testing.T) {
	const spokes = 100
	edges := make([][2]int32, spokes)
	for i := range edges {
		edges[i] = [2]int32{0, int32(i + 1)}
	}
	for _, tc := range []struct{ b, groups int }{{1, 100}, {3, 34}, {64, 2}, {spokes, 1}} {
		bl, err := Blocked(spokes+1, edges, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyBlocks(bl, spokes+1, edges); err != nil {
			t.Fatalf("b=%d: %v", tc.b, err)
		}
		if bl.NumColors() != tc.groups {
			t.Errorf("b=%d: %d groups, want %d", tc.b, bl.NumColors(), tc.groups)
		}
	}
	// Under a bound on the groups the coloring gives up at the first run
	// past it, and what the Blocks held stays.
	bl, err := Blocked(spokes+1, edges, spokes)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := BlockedInto(bl, spokes+1, edges, 3, 14); ok || err != nil {
		t.Fatalf("34 groups fit under a bound of 14: ok=%v err=%v", ok, err)
	}
	if ok, err := BlockedInto(bl, spokes+1, edges, 64, 2); !ok || err != nil || bl.NumColors() != 2 {
		t.Fatalf("2 groups under a bound of 2: ok=%v err=%v groups=%d", ok, err, bl.NumColors())
	}
	if ok, _ := BlockedInto(bl, spokes+1, edges, 3, 14); ok || bl.NumColors() != 2 || VerifyBlocks(bl, spokes+1, edges) != nil {
		t.Fatal("a coloring that gave up overwrote the one before it")
	}
}

// TestBlockedValidOnRefinedMesh colors the mesh an adaptive epoch hands the
// engine and checks that runs of the generator's edge order still group
// into far fewer groups than single edges do.
func TestBlockedValidOnRefinedMesh(t *testing.T) {
	m := refinedMesh(t)
	perEdge, err := Blocked(m.NV(), m.Edges, 1)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := Blocked(m.NV(), m.Edges, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyBlocks(bl, m.NV(), m.Edges); err != nil {
		t.Fatal(err)
	}
	if bl.NumColors() >= perEdge.NumColors() {
		t.Errorf("runs of 64 need %d groups, single edges %d", bl.NumColors(), perEdge.NumColors())
	}
}

// TestBlockedDeterministic: the coloring is a function of its arguments —
// two calls agree, and so does BlockedInto over a Blocks that last held a
// different, larger list.
func TestBlockedDeterministic(t *testing.T) {
	m := refinedMesh(t)
	a, err := Blocked(m.NV(), m.Edges, 32)
	if err != nil {
		t.Fatal(err)
	}
	big, err := meshgen.Channel(meshgen.DefaultChannel(8, 6, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Blocked(big.NV(), big.Edges, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := BlockedInto(b, m.NV(), m.Edges, 32, 0); err != nil || !ok {
		t.Fatal(ok, err)
	}
	if !slices.Equal(a.Order, b.Order) || !slices.Equal(a.Start, b.Start) || !slices.Equal(a.Run, b.Run) {
		t.Fatal("a reused Blocks colors differently from a fresh one")
	}
}

func TestBlockedRejectsBadInput(t *testing.T) {
	good := [][2]int32{{0, 1}, {1, 2}}
	if _, err := Blocked(3, good, 0); err == nil {
		t.Error("run length 0 accepted")
	}
	for name, edges := range map[string][][2]int32{
		"out of range": {{0, 1}, {1, 3}},
		"negative":     {{0, 1}, {-1, 2}},
		"self-loop":    {{0, 1}, {2, 2}},
	} {
		for _, b := range []int{1, 2} {
			if _, err := Blocked(3, edges, b); err == nil {
				t.Errorf("%s edge accepted at b=%d", name, b)
			}
		}
	}
	if _, err := Blocked(3, [][3]int32{{0, 1, 0}}, 1); err == nil {
		t.Error("face with a repeated vertex accepted")
	}
}

func TestVerifyBlocksCatchesViolations(t *testing.T) {
	// A path 0-1-2-3-4 in runs of two: {01,12} and {23,34} share vertex 2.
	edges := [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	identity := []int32{0, 1, 2, 3}
	for name, tc := range map[string]struct {
		bl   Blocks
		want string
	}{
		"valid":              {Blocks{Coloring: Coloring{Order: identity, Start: []int32{0, 2, 4}}, Run: []int32{0, 2, 4}}, ""},
		"shared vertex":      {Blocks{Coloring: Coloring{Order: identity, Start: []int32{0, 4}}, Run: []int32{0, 2, 4}}, "vertex 2"},
		"not a permutation":  {Blocks{Coloring: Coloring{Order: []int32{0, 1, 1, 3}, Start: []int32{0, 2, 4}}, Run: []int32{0, 2, 4}}, "twice"},
		"run out of order":   {Blocks{Coloring: Coloring{Order: []int32{1, 0, 2, 3}, Start: []int32{0, 2, 4}}, Run: []int32{0, 2, 4}}, "contiguous"},
		"run across a group": {Blocks{Coloring: Coloring{Order: identity, Start: []int32{0, 1, 4}}, Run: []int32{0, 2, 4}}, "straddles"},
		"runs fall short":    {Blocks{Coloring: Coloring{Order: identity, Start: []int32{0, 2, 4}}, Run: []int32{0, 2}}, "run table"},
	} {
		err := VerifyBlocks(&tc.bl, 5, edges)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one mentioning %q", name, err, tc.want)
		}
	}
}
