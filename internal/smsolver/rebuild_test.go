package smsolver

import (
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/refine"
)

// refinedCase builds a channel mesh, steps a solution a little away from
// freestream, selectively refines a fixed mark set, and transfers the
// solution (survivors keep their state, midpoints average their parents).
func refinedCase(t *testing.T, p euler.Params) (m0 *mesh.Mesh, r *refine.Refined, w []euler.State) {
	t.Helper()
	var err error
	m0, err = meshgen.Channel(meshgen.ChannelSpec{NX: 5, NY: 3, NZ: 2, LX: 3, LY: 1, LZ: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := euler.NewDisc(m0, p)
	w0 := make([]euler.State, m0.NV())
	d.InitUniform(w0)
	ws := euler.NewStepWorkspace(m0.NV())
	for i := 0; i < 3; i++ {
		d.Step(w0, nil, ws)
	}
	marked := make([]bool, m0.NT())
	for i := 0; i < len(marked); i += 6 {
		marked[i] = true
	}
	r, err = refine.Selective(m0, marked)
	if err != nil {
		t.Fatal(err)
	}
	w = make([]euler.State, r.Mesh.NV())
	copy(w, w0)
	for k, pr := range r.MidParents {
		var st euler.State
		for c := 0; c < euler.NVar; c++ {
			st[c] = 0.5 * (w0[pr[0]][c] + w0[pr[1]][c])
		}
		w[r.NVOld+k] = p.Repair(st)
	}
	return m0, r, w
}

func stepsBitwise(t *testing.T, label string, a, b []euler.State, na, nb float64) {
	t.Helper()
	if na != nb {
		t.Fatalf("%s: norms differ: %.17g vs %.17g", label, na, nb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: vertex %d differs", label, i)
		}
	}
}

// TestRebuildMatchesFresh asserts a rebuilt engine is bitwise a freshly
// constructed one on the refined mesh: the layout is a function of the
// current mesh alone, whatever meshes the engine ran on before.
func TestRebuildMatchesFresh(t *testing.T) {
	p := euler.DefaultParams(0.5, 0)
	m0, r, w := refinedCase(t, p)

	s, err := New(m0, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Rebuild(r.Mesh, p); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if &s.D.M.Edges[0] == &m0.Edges[0] || s.D.M.NE() != r.Mesh.NE() {
		t.Fatal("rebuild did not move the engine onto a view of the refined mesh")
	}
	fresh, err := New(r.Mesh, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()

	wA := append([]euler.State(nil), w...)
	wB := append([]euler.State(nil), w...)
	for i := 0; i < 3; i++ {
		na := s.Step(wA, nil)
		nb := fresh.Step(wB, nil)
		stepsBitwise(t, "rebuilt vs fresh", wA, wB, na, nb)
	}
}

// unshared returns a mesh over m's arrays that carries no memoised layout,
// so that New on it pays the whole from-scratch build (coloring and
// permutation included) the way it does on a mesh fresh out of refinement.
func unshared(m *mesh.Mesh) *mesh.Mesh {
	return &mesh.Mesh{X: m.X, Tets: m.Tets, Edges: m.Edges, EdgeNorm: m.EdgeNorm, Vol: m.Vol, BFaces: m.BFaces}
}

// TestRebuildWorkerDeterminism asserts rebuilt engines give bitwise
// identical results at every pooled worker count: the layout depends only
// on the mesh, and cutting a group at run boundaries never changes a
// vertex's accumulation order.
func TestRebuildWorkerDeterminism(t *testing.T) {
	p := euler.DefaultParams(0.5, 0)
	m0, r, w := refinedCase(t, p)

	var ref []euler.State
	var refNorms []float64
	for _, nw := range []int{1, 2, 4} {
		s, err := New(m0, p, nw)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Rebuild(r.Mesh, p); err != nil {
			t.Fatal(err)
		}
		wk := append([]euler.State(nil), w...)
		var norms []float64
		for i := 0; i < 3; i++ {
			norms = append(norms, s.Step(wk, nil))
		}
		s.Close()
		if ref == nil {
			ref, refNorms = wk, norms
			continue
		}
		for i := range norms {
			if norms[i] != refNorms[i] {
				t.Fatalf("nw=%d: step %d norm differs", nw, i)
			}
		}
		for i := range wk {
			if wk[i] != ref[i] {
				t.Fatalf("nw=%d: vertex %d differs", nw, i)
			}
		}
	}
}

// TestRebuildGrowsAcrossEpochs drives two successive refinement epochs
// through one solver, checking the in-place growth path (the second epoch
// reuses first-epoch capacity where it can).
func TestRebuildGrowsAcrossEpochs(t *testing.T) {
	p := euler.DefaultParams(0.5, 0)
	m0, r1, w1 := refinedCase(t, p)

	s, err := New(m0, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Rebuild(r1.Mesh, p); err != nil {
		t.Fatal(err)
	}
	s.Step(w1, nil)

	marked := make([]bool, r1.Mesh.NT())
	for i := 0; i < len(marked); i += 9 {
		marked[i] = true
	}
	r2, err := refine.Selective(r1.Mesh, marked)
	if err != nil {
		t.Fatal(err)
	}
	w2 := make([]euler.State, r2.Mesh.NV())
	copy(w2, w1)
	for k, pr := range r2.MidParents {
		var st euler.State
		for c := 0; c < euler.NVar; c++ {
			st[c] = 0.5 * (w1[pr[0]][c] + w1[pr[1]][c])
		}
		w2[r2.NVOld+k] = p.Repair(st)
	}
	if err := s.Rebuild(r2.Mesh, p); err != nil {
		t.Fatal(err)
	}
	if n := s.Step(w2, nil); n <= 0 {
		t.Fatalf("step on twice-refined mesh returned norm %g", n)
	}
}

// TestRebuildAllocatesNothing: once the engine owns arrays large enough —
// here after a Rebuild to the larger of two refinements — every Rebuild to
// a mesh inside that capacity recolors, re-permutes, re-cuts the chunk
// tables and retargets the discretization without one allocation.
func TestRebuildAllocatesNothing(t *testing.T) {
	p := euler.DefaultParams(0.5, 0)
	m0, r1, _ := refinedCase(t, p)
	marked := make([]bool, r1.Mesh.NT())
	for i := 0; i < len(marked); i += 9 {
		marked[i] = true
	}
	r2, err := refine.Selective(r1.Mesh, marked)
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(m0, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pair := [2]*mesh.Mesh{r1.Mesh, r2.Mesh}
	for _, m := range pair {
		if err := s.Rebuild(m, p); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(6, func() {
		if err := s.Rebuild(pair[next&1], p); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("a rebuild inside the engine's capacity allocates %v times", allocs)
	}
	w := make([]euler.State, s.D.M.NV())
	s.InitUniform(w)
	if n := s.Step(w, nil); n != n {
		t.Fatalf("step after the rebuilds returned norm %v", n)
	}
}

// TestSequentialViewIsTheMesh checks the sequential engine's form: its view
// is the mesh it was built or rebuilt on, not a copy, each list is one group
// holding one run (checkLayout: identity order, run-aligned tiles), the
// mesh's Derived slot stays free, the form survives Rebuild, and the chunk
// tables refuse a second worker: the layout is only ever NewSequential's
// one-worker form. (A second worker could not race the first anyway: runs
// are never split, so the one run would all go to one of them.)
func TestSequentialViewIsTheMesh(t *testing.T) {
	p := euler.DefaultParams(0.675, 0)
	m0, r, w := refinedCase(t, p)
	s := NewSequential(m0, p)
	defer s.Close()
	for _, m := range []*mesh.Mesh{m0, r.Mesh} {
		if m != m0 {
			if err := s.Rebuild(m, p); err != nil {
				t.Fatal(err)
			}
			s.Step(w, nil)
		}
		if s.D.M != m || s.le.lay.view != m {
			t.Fatal("the sequential engine's view is not its mesh")
		}
		if e, f := s.NumColors(); e != 1 || f != 1 {
			t.Fatalf("%d edge and %d face groups, want one each", e, f)
		}
		if s.le.lay.edges.NumRuns() != 1 || s.le.lay.faces.NumRuns() != 1 {
			t.Fatal("a list of the sequential layout is not one run")
		}
		checkLayout(t, s.le.lay)
		free := new(int)
		if got := m.Derived(func(*mesh.Mesh) any { return free }); got != free {
			t.Fatal("the sequential engine filled the mesh's Derived slot")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("chunk tables for two workers over the in-order layout did not panic")
		}
	}()
	s.le.buildSpans(2)
}
