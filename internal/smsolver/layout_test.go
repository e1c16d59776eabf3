package smsolver

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"eul3d/internal/color"
	"eul3d/internal/euler"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/multigrid"
	"eul3d/internal/reorder"
)

// TestSmoothGatherBitwiseMatchesEdgeSweep pins the gather-form smoother to
// the edge form it replaced in the engine: on random fields over the
// block-colored layout, NSmooth gather sweeps over the adjacency equal —
// bit for bit — the SmoothAccumSoAKernel sweep over every group
// followed by SmoothCombineSoAKernel, for 1–3 sweeps with averaging on and
// with eps = 0.
func TestSmoothGatherBitwiseMatchesEdgeSweep(t *testing.T) {
	lay, err := layoutFor(testMesh(t))
	if err != nil {
		t.Fatal(err)
	}
	nv := lay.view.NV()
	d := euler.NewDisc(lay.view, euler.DefaultParams(0.675, 0))
	rng := rand.New(rand.NewSource(5))

	for _, eps := range []float64{0, 0.5, 1.3} {
		for sweeps := 1; sweeps <= 3; sweeps++ {
			rhs := euler.NewStateSoA(nv)
			for k := 0; k < euler.NVar; k++ {
				for i := range *rhs {
					(*rhs)[i][k] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
				}
			}
			(*rhs)[3][0] = math.Copysign(0, -1) // a sum that starts from -0 must still start from +0

			// Edge form, as the engine ran it: zero, accumulate color by
			// color, combine, ping-pong.
			cur, next := euler.NewStateSoA(nv), euler.NewStateSoA(nv)
			copy(*cur, *rhs)
			for s := 0; s < sweeps; s++ {
				next.ZeroRange(0, nv)
				for g := 0; g < lay.edges.NumColors(); g++ {
					d.SmoothAccumSoAKernel(cur, next, lay.edges.Group(g))
				}
				d.SmoothCombineSoAKernel(rhs, next, eps, 0, nv)
				cur, next = next, cur
			}

			// Gather form, chunked unevenly as the pool would.
			got := rhs
			scratch := [2]*euler.StateSoA{euler.NewStateSoA(nv), euler.NewStateSoA(nv)}
			for s := 0; s < sweeps; s++ {
				out := scratch[s&1]
				cut := nv / 3
				euler.SmoothGatherSoAKernel(rhs, got, out, lay.adjStart, lay.adj, eps, cut, nv)
				euler.SmoothGatherSoAKernel(rhs, got, out, lay.adjStart, lay.adj, eps, 0, cut)
				got = out
			}

			for i := 0; i < nv; i++ {
				a, b := (*cur)[i], (*got)[i]
				for k := range a {
					if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
						t.Fatalf("eps=%g sweeps=%d: vertex %d comp %d: %v (edge form) vs %v (gather)", eps, sweeps, i, k, a[k], b[k])
					}
				}
			}
		}
	}
}

// TestLayoutSharedPerMesh checks the per-mesh memo: engines on one mesh
// run over one layout (same edge and adjacency arrays), engines on another
// mesh do not, and concurrent builders all get the one layout.
func TestLayoutSharedPerMesh(t *testing.T) {
	m := testMesh(t)
	p := euler.DefaultParams(0.675, 0)
	a, err := New(m, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(m, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if &a.D.M.Edges[0] != &b.D.M.Edges[0] || &a.le.lay.adj[0] != &b.le.lay.adj[0] {
		t.Fatal("two engines on one mesh do not share the layout")
	}
	if &a.D.M.Edges[0] == &m.Edges[0] {
		t.Fatal("the layout aliases the source mesh's edge list")
	}

	other, err := New(testMesh(t), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if &other.D.M.Edges[0] == &a.D.M.Edges[0] || &other.le.lay.adj[0] == &a.le.lay.adj[0] {
		t.Fatal("engines on different meshes share a layout")
	}

	fresh := testMesh(t)
	lays := make([]*layout, 8)
	var wg sync.WaitGroup
	for i := range lays {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := New(fresh, p, 1)
			if err != nil {
				t.Error(err)
				return
			}
			lays[i] = s.le.lay
			s.Close()
		}(i)
	}
	wg.Wait()
	for i, l := range lays {
		if l != lays[0] {
			t.Fatalf("concurrent New %d built its own layout", i)
		}
	}
}

// TestNewMatchesSequentialOnView holds the bitwise contract of the layout,
// at every worker count: New(m) runs
// over a view of m whose stored edge order is the order the pooled sweeps
// accumulate in, so it equals the sequential solver on that view
// (Solver.D.M).
func TestNewMatchesSequentialOnView(t *testing.T) {
	m := testMesh(t)
	p := euler.DefaultParams(0.675, 0)
	const steps = 6
	sequential := func(on *mesh.Mesh) ([steps]float64, []euler.State) {
		d := euler.NewDisc(on, p)
		ws := euler.NewStepWorkspace(on.NV())
		w := make([]euler.State, on.NV())
		d.InitUniform(w)
		var norms [steps]float64
		for c := range norms {
			norms[c] = d.Step(w, nil, ws)
		}
		return norms, w
	}

	for _, nw := range []int{1, 2, 8} {
		s, err := New(m, p, nw)
		if err != nil {
			t.Fatal(err)
		}
		seqNorms, wSeq := sequential(s.D.M)
		w := make([]euler.State, m.NV())
		s.InitUniform(w)
		for c := 0; c < steps; c++ {
			if n := s.Step(w, nil); n != seqNorms[c] {
				t.Fatalf("nw=%d step %d: norm %v, sequential on the view %v", nw, c, n, seqNorms[c])
			}
		}
		s.Close()
		for i := range w {
			if w[i] != wSeq[i] {
				t.Fatalf("nw=%d: vertex %d: %v, sequential on the view %v", nw, i, w[i], wSeq[i])
			}
		}
	}
}

// Residual histories of the 12x6x4 seed-17 channel at Mach 0.675 on the
// block-colored layout, re-recorded once when the layout moved from
// per-edge colors to runs (every vertex's accumulation order changed with
// it). What makes the words trustworthy is checked beside them: each equals
// the sequential euler.Disc / multigrid.Solver on the engine's own views.
// Anything that changes where data sits or how a sweep is cut into barriers,
// and not an accumulation order, must leave them alone.
var (
	goldenSingle = [12]uint64{
		0x3fc775b5f73eb25d, 0x3fbf1e83be0653fa, 0x3fb372b3f2cc7479, 0x3fb033e3b2094e52,
		0x3fb1fc938f830621, 0x3fb1ad556515e2cb, 0x3faed0cfc183d02f, 0x3fae86efc3e4f1cb,
		0x3faec78f2cc4be76, 0x3fae85076f3c1654, 0x3faba68afa7d724c, 0x3fa98815652e4030,
	}
	goldenW3 = [12]uint64{
		0x3fc775b5f73eb25d, 0x3fbf3251af17f14a, 0x3fb48ce77c4b858a, 0x3fb4db03724cadef,
		0x3fb0bbb7881eb874, 0x3fa89cce3867d44f, 0x3fa9b20a00094f20, 0x3facad2cfc6e778c,
		0x3fa9706599b2ef8b, 0x3fa51b8fb17c0ea7, 0x3fa36185fcdd0de6, 0x3fa22c8c16c20c52,
	}
)

func TestGoldenHistoryUnchanged(t *testing.T) {
	spec := meshgen.DefaultChannel(12, 6, 4, 17)
	p := euler.DefaultParams(0.675, 0)
	for _, nw := range []int{1, 2, 8} {
		m, err := meshgen.Channel(spec)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(m, p, nw)
		if err != nil {
			t.Fatal(err)
		}
		d := euler.NewDisc(s.D.M, p)
		ws := euler.NewStepWorkspace(m.NV())
		w, wSeq := make([]euler.State, m.NV()), make([]euler.State, m.NV())
		s.InitUniform(w)
		d.InitUniform(wSeq)
		for c, want := range goldenSingle {
			got, seq := math.Float64bits(s.Step(w, nil)), math.Float64bits(d.Step(wSeq, nil, ws))
			if got != want || got != seq {
				t.Fatalf("single grid, nw=%d step %d: norm bits %#x, golden %#x, sequential on the view %#x", nw, c, got, want, seq)
			}
		}
		s.Close()

		seq, err := meshgen.Sequence(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		mg, err := NewMultigrid(seq, p, 2, nw)
		if err != nil {
			t.Fatal(err)
		}
		views := make([]*mesh.Mesh, len(mg.levels))
		for l, lev := range mg.levels {
			views[l] = lev.eng.lay.view
		}
		ref, err := multigrid.New(views, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		for c, want := range goldenW3 {
			got, seq := math.Float64bits(mg.Cycle()), math.Float64bits(ref.Cycle())
			if got != want || got != seq {
				t.Fatalf("3-level W, nw=%d cycle %d: norm bits %#x, golden %#x, sequential on the views %#x", nw, c, got, want, seq)
			}
		}
		mg.Close()
	}
}

// checkLayout verifies a layout's structure from the outside: the blocks
// describe the view (identity order, valid block colorings of its edge and
// face lists), and for every worker count each group's chunk table tiles the
// group with cuts on run boundaries only — a cut inside a run is a data
// race the bitwise tests can miss at two workers.
func checkLayout(t *testing.T, lay *layout) {
	t.Helper()
	v := lay.view
	tris := make([][3]int32, len(v.BFaces))
	for i := range tris {
		tris[i] = v.BFaces[i].V
	}
	if err := color.VerifyBlocks(&lay.edges, v.NV(), v.Edges); err != nil {
		t.Fatalf("edges: %v", err)
	}
	if err := color.VerifyBlocks(&lay.faces, v.NV(), tris); err != nil {
		t.Fatalf("faces: %v", err)
	}
	for name, bl := range map[string]*color.Blocks{"edges": &lay.edges, "faces": &lay.faces} {
		for at, i := range bl.Order {
			if int(i) != at {
				t.Fatalf("%s: Order[%d] = %d, not the identity", name, at, i)
			}
		}
		isCut := make(map[int]bool, len(bl.Run))
		for _, at := range bl.Run {
			isCut[int(at)] = true
		}
		for _, nw := range []int{1, 2, 3, 8} {
			var tab groupSpans
			tab.build(bl, nw)
			for g := 0; g < bl.NumColors(); g++ {
				at := int(bl.Start[g])
				if a := tab.active[g]; a < 1 || a > nw {
					t.Fatalf("%s nw=%d group %d: %d active workers", name, nw, g, a)
				}
				for w := 0; w < nw; w++ {
					sp := tab.of(g, w)
					if w >= tab.active[g] {
						if sp != (span{}) {
							t.Fatalf("%s nw=%d group %d: idle worker %d holds %v", name, nw, g, w, sp)
						}
						continue
					}
					if sp.lo != at || sp.hi < sp.lo || !isCut[sp.lo] || !isCut[sp.hi] {
						t.Fatalf("%s nw=%d group %d worker %d: span %v after %d is not a run-aligned tile", name, nw, g, w, sp, at)
					}
					at = sp.hi
				}
				if at != int(bl.Start[g+1]) {
					t.Fatalf("%s nw=%d group %d: spans end at %d, group at %d", name, nw, g, at, bl.Start[g+1])
				}
			}
		}
	}
}

// TestLayoutStructure checks the layout of the meshes the engine meets: the
// generated channel at two sizes (the rule's run length), a selectively
// refined one (an adaptive epoch's) and a 3-level sequence's coarse levels.
func TestLayoutStructure(t *testing.T) {
	big, err := meshgen.Channel(meshgen.DefaultChannel(24, 12, 8, 17))
	if err != nil {
		t.Fatal(err)
	}
	_, r, _ := refinedCase(t, euler.DefaultParams(0.5, 0))
	meshes := append(testSequence(t, 3), testMesh(t), big, r.Mesh)
	for _, m := range meshes {
		lay, err := layoutFor(m)
		if err != nil {
			t.Fatal(err)
		}
		checkLayout(t, lay)
		if ng := lay.edges.NumColors(); ng > maxGroups || !balanced(&lay.edges) {
			t.Errorf("%d-edge mesh: %d groups, balanced %v", m.NE(), ng, balanced(&lay.edges))
		}
	}
	if lay, _ := layoutFor(big); lay.edges.NumRuns() > 2*runsWanted || lay.edges.NumColors() >= 15 {
		t.Errorf("generated channel: %d runs in %d groups — the layout fell back on a mesh that is local", lay.edges.NumRuns(), lay.edges.NumColors())
	}
}

// TestScrambledMeshFallsBack: a mesh whose vertices and tetrahedra arrive
// in arbitrary order has no local runs to find. The layout must notice —
// from what it built, not from who sent the mesh — fall back to short runs
// without panicking, still verify and balance, and the engine on it must
// keep every relational contract: equal to the sequential solver on its
// view, equal across worker counts, and equal to the sequential
// solver on the source mesh to roundoff.
func TestScrambledMeshFallsBack(t *testing.T) {
	nat, err := meshgen.Channel(meshgen.DefaultChannel(24, 12, 8, 17))
	if err != nil {
		t.Fatal(err)
	}
	m, err := reorder.Scramble(nat, 3)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := layoutFor(m)
	if err != nil {
		t.Fatal(err)
	}
	checkLayout(t, lay)
	natLay, err := layoutFor(nat)
	if err != nil {
		t.Fatal(err)
	}
	if lay.edges.NumRuns() < 8*natLay.edges.NumRuns() {
		t.Errorf("scrambled mesh kept %d runs (generated order: %d): no fallback happened", lay.edges.NumRuns(), natLay.edges.NumRuns())
	}
	if !balanced(&lay.edges) || !balanced(&lay.faces) {
		t.Error("the fallback layout does not balance")
	}
	// Every group splits over eight workers within 2x of even.
	var tab groupSpans
	tab.build(&lay.edges, 8)
	for g := range tab.active {
		n, most := int(lay.edges.Start[g+1]-lay.edges.Start[g]), 0
		for w := 0; w < 8; w++ {
			most = max(most, tab.of(g, w).hi-tab.of(g, w).lo)
		}
		if ways := workersFor(n, 8); most > 2*((n+ways-1)/ways) {
			t.Errorf("group %d: %d edges, largest of %d shares %d", g, n, ways, most)
		}
	}

	p := euler.DefaultParams(0.675, 0)
	const steps = 4
	type run struct {
		norms [steps]float64
		w     []euler.State
	}
	pooled := func(nw int) (r run, view *mesh.Mesh) {
		s, err := New(m, p, nw)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		r.w = make([]euler.State, m.NV())
		s.InitUniform(r.w)
		for c := range r.norms {
			r.norms[c] = s.Step(r.w, nil)
		}
		return r, s.D.M
	}
	sequential := func(on *mesh.Mesh) (r run) {
		d := euler.NewDisc(on, p)
		ws := euler.NewStepWorkspace(on.NV())
		r.w = make([]euler.State, on.NV())
		d.InitUniform(r.w)
		for c := range r.norms {
			r.norms[c] = d.Step(r.w, nil, ws)
		}
		return r
	}
	ref, view := pooled(1)
	for name, other := range map[string]run{
		"sequential on the view": sequential(view),
		"2 workers":              first(pooled(2)),
		"8 workers":              first(pooled(8)),
	} {
		for c := range ref.norms {
			stepsBitwise(t, "1 worker vs "+name, ref.w, other.w, ref.norms[c], other.norms[c])
		}
	}
	src := sequential(m)
	for c := range ref.norms {
		if d := math.Abs(ref.norms[c]-src.norms[c]) / src.norms[c]; d > 1e-9 {
			t.Errorf("step %d: pooled norm %v vs sequential on the source mesh %v (rel %g)", c, ref.norms[c], src.norms[c], d)
		}
	}
}

func first[A, B any](a A, _ B) A { return a }

// TestRCMRestoresLocality: RCM renumbering of a scrambled mesh must hand the
// layout local runs again — a handful of groups, as on the generated order,
// not the per-edge colors of the scrambled one. New vertex numbers alone
// leave the tetrahedra, and so Finish's edge order, scrambled; the element
// sort is what makes the difference (at the parent of this test, 20 groups).
func TestRCMRestoresLocality(t *testing.T) {
	nat, err := meshgen.Channel(meshgen.DefaultChannel(32, 16, 10, 17))
	if err != nil {
		t.Fatal(err)
	}
	scr, err := reorder.Scramble(nat, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := reorder.RCMMesh(scr)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(m, euler.DefaultParams(0.675, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if edges, faces := s.NumColors(); edges > 6 {
		t.Errorf("scrambled then RCM-renumbered mesh: %d edge groups, %d face groups — the layout found no local runs", edges, faces)
	}
}

// TestStarNeedsMoreGroupsThanABitmaskHolds: one hub, 3000 spokes. Whatever
// the run length, every run holds the hub and needs a group to itself, so
// the rule halves its way down to runs of one and 3000 groups — far past the
// 64 a vertex's bitmask holds — and the chunk tables take it.
func TestStarNeedsMoreGroupsThanABitmaskHolds(t *testing.T) {
	edges := make([][2]int32, 3000)
	for i := range edges {
		edges[i] = [2]int32{0, int32(i + 1)}
	}
	var bl color.Blocks
	if err := colorBlocks(&bl, len(edges)+1, edges); err != nil {
		t.Fatal(err)
	}
	if err := color.VerifyBlocks(&bl, len(edges)+1, edges); err != nil {
		t.Fatal(err)
	}
	if bl.NumColors() != len(edges) || bl.NumRuns() != len(edges) {
		t.Fatalf("%d groups of %d runs, want %d of one run each", bl.NumColors(), bl.NumRuns(), len(edges))
	}
	var tab groupSpans
	tab.build(&bl, 8)
	for g, a := range tab.active {
		if sp := tab.of(g, 0); a != 1 || sp != (span{g, g + 1}) {
			t.Fatalf("group %d: %d active, worker 0 holds %v", g, a, sp)
		}
	}
}
