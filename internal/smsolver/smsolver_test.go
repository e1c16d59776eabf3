package smsolver

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/flops"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
)

func testMesh(t *testing.T) *mesh.Mesh {
	t.Helper()
	m, err := meshgen.Channel(meshgen.DefaultChannel(12, 8, 6, 17))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBitwiseIdenticalAcrossWorkers(t *testing.T) {
	m := testMesh(t)
	p := euler.DefaultParams(0.675, 0)

	var ref []euler.State
	var refNorms []float64
	for _, nw := range []int{1, 2, 3, runtime.GOMAXPROCS(0), 8} {
		s, err := New(m, p, nw)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		w := make([]euler.State, m.NV())
		s.InitUniform(w)
		var norms []float64
		for c := 0; c < 5; c++ {
			norms = append(norms, s.Step(w, nil))
		}
		if ref == nil {
			ref = w
			refNorms = norms
			continue
		}
		for i := range w {
			if w[i] != ref[i] {
				t.Fatalf("nworkers=%d: vertex %d differs: %v vs %v", nw, i, w[i], ref[i])
			}
		}
		for c := range norms {
			if norms[c] != refNorms[c] {
				t.Fatalf("nworkers=%d: cycle %d norm %v vs %v", nw, c, norms[c], refNorms[c])
			}
		}
	}
}

// TestMatchesSequentialToRoundoff: the roundoff this test once allowed is
// gone — at four workers the pooled step is euler.Disc.Step bit for bit,
// norms and states.
func TestMatchesSequentialToRoundoff(t *testing.T) {
	m := testMesh(t)
	p := euler.DefaultParams(0.675, 0)
	matchesSequential(t, m, p, 4, 10)
}

// matchesSequential steps New(m, p, nw) and euler.Disc.Step side by side
// and requires equal norms and states, bit for bit.
func matchesSequential(t *testing.T, m *mesh.Mesh, p euler.Params, nw, steps int) {
	t.Helper()
	seq := euler.NewDisc(m, p)
	wseq := make([]euler.State, m.NV())
	seq.InitUniform(wseq)
	ws := euler.NewStepWorkspace(m.NV())

	par, err := New(m, p, nw)
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	wpar := make([]euler.State, m.NV())
	par.InitUniform(wpar)

	for c := 0; c < steps; c++ {
		stepsBitwise(t, "sequential vs pooled", wseq, wpar, seq.Step(wseq, nil, ws), par.Step(wpar, nil))
	}
}

func TestFreestreamPreserved(t *testing.T) {
	spec := meshgen.DefaultChannel(8, 5, 4, 3)
	spec.BumpHeight = 0
	m, err := meshgen.Channel(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := euler.DefaultParams(0.5, 0)
	s, err := New(m, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := make([]euler.State, m.NV())
	s.InitUniform(w)
	if norm := s.Step(w, nil); norm > 1e-11 {
		t.Errorf("freestream residual %g", norm)
	}
	for i := range w {
		for k := 0; k < euler.NVar; k++ {
			if math.Abs(w[i][k]-p.Freestream[k]) > 1e-10 {
				t.Fatalf("freestream perturbed at vertex %d", i)
			}
		}
	}
}

func TestSmoothingDisabledPath(t *testing.T) {
	m := testMesh(t)
	p := euler.DefaultParams(0.675, 0)
	p.EpsSmooth = 0
	p.NSmooth = 0
	s, err := New(m, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := make([]euler.State, m.NV())
	s.InitUniform(w)
	if norm := s.Step(w, nil); math.IsNaN(norm) {
		t.Error("NaN norm with smoothing disabled")
	}
}

// TestOddSmoothingSweeps exercises the copy-back path of the pooled
// smoother (an odd sweep count leaves the result in the ping-pong scratch)
// and checks it still matches the sequential solver bit for bit.
func TestOddSmoothingSweeps(t *testing.T) {
	m := testMesh(t)
	p := euler.DefaultParams(0.675, 0)
	p.NSmooth = 3
	matchesSequential(t, m, p, 3, 5)
}

// TestStepZeroAllocs asserts the acceptance criterion of the pool engine:
// a steady-state Step allocates nothing, with the fork/join barrier and
// every table prebuilt in New, whether the workers park between
// regions (one processor) or poll (two).
func TestStepZeroAllocs(t *testing.T) {
	m := testMesh(t)
	s, err := New(m, euler.DefaultParams(0.675, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := make([]euler.State, m.NV())
	s.InitUniform(w)
	forcing := make([]euler.State, m.NV())
	s.Step(w, nil) // warm the worker stacks
	if n := testing.AllocsPerRun(5, func() { s.Step(w, forcing) }); n != 0 {
		t.Errorf("Step allocates %v times per call, want 0", n)
	}
	if n := pollingAllocs(func() { s.Step(w, forcing) }, 20); n != 0 {
		t.Errorf("20 steps at GOMAXPROCS 2 allocate %d times, want 0", n)
	}
}

// pollingAllocs counts the mallocs of n calls of f at GOMAXPROCS 2, where
// a 2-worker pool's worker polls for the next region (testing.AllocsPerRun
// runs at one processor, where it parks), with the collector off. It is
// the least of ten windows: a worker that does park and is woken on the
// other processor can make the runtime allocate a sudog for that
// processor's cache.
func pollingAllocs(f func(), n int) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := ^uint64(0)
	for try := 0; try < 10 && least > 0; try++ {
		f()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// TestEmptyMesh: a degenerate (zero-vertex) mesh must construct and step
// without panicking — the smoother used to index &res[0] unconditionally.
func TestEmptyMesh(t *testing.T) {
	m := &mesh.Mesh{}
	if err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	s, err := New(m, euler.DefaultParams(0.5, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var w []euler.State
	s.InitUniform(w)
	if norm := s.Step(w, nil); norm != 0 {
		t.Errorf("empty-mesh step norm = %v, want 0", norm)
	}
}

// TestCloseIdempotent: Close twice is fine, and a closed solver keeps its
// already-computed state readable.
func TestCloseIdempotent(t *testing.T) {
	m := testMesh(t)
	s, err := New(m, euler.DefaultParams(0.675, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]euler.State, m.NV())
	s.InitUniform(w)
	s.Step(w, nil)
	s.Close()
	s.Close()
	if st := s.Stats(); st.Total().Seconds <= 0 {
		t.Error("no wall clock accumulated before Close")
	}
}

// TestStatsAccumulate: the instrumentation layer charges every phase with
// time and analytic flops after a few steps.
func TestStatsAccumulate(t *testing.T) {
	m := testMesh(t)
	s, err := New(m, euler.DefaultParams(0.675, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := make([]euler.State, m.NV())
	s.InitUniform(w)
	const steps = 3
	for c := 0; c < steps; c++ {
		s.Step(w, nil)
	}
	st := s.Stats()
	if len(st.Phases) == 0 {
		t.Fatal("no phases reported")
	}
	for _, p := range st.Phases {
		if p.Flops <= 0 {
			t.Errorf("phase %s has no flops charged", p.Name)
		}
	}
	// Charges move between phases with the work; their sum per step is the
	// scheme's nominal operation count and does not.
	pp := s.D.P
	want := steps * flops.Step(int64(m.NV()), int64(m.NE()), int64(len(m.BFaces)), len(pp.Stages), euler.DissipStages, pp.NSmooth)
	if got := st.Total().Flops; got != want {
		t.Errorf("total flops %d over %d steps, want flops.Step x %d = %d", got, steps, steps, want)
	}
	if tot := st.Total(); tot.Seconds <= 0 || tot.Mflops() <= 0 {
		t.Errorf("implausible total: %+v", tot)
	}
	if st.String() == "" {
		t.Error("empty stats rendering")
	}
}

// TestNewRejectsForeignVertices: an edge or boundary face naming a vertex
// the mesh does not have is an error from New and from Rebuild, not a
// panic in the first sweep.
func TestNewRejectsForeignVertices(t *testing.T) {
	p := euler.DefaultParams(0.5, 0)
	good := testMesh(t)
	badEdge := *good
	badEdge.Edges = append(append([][2]int32(nil), good.Edges...), [2]int32{0, int32(good.NV())})
	badEdge.EdgeNorm = append(append(badEdge.EdgeNorm[:0:0], good.EdgeNorm...), good.EdgeNorm[0])
	badFace := *good
	badFace.BFaces = append(append([]mesh.BFace(nil), good.BFaces...), mesh.BFace{V: [3]int32{0, 1, -1}})
	for name, m := range map[string]*mesh.Mesh{"edge": &badEdge, "face": &badFace} {
		for _, nw := range []int{1, 2} {
			if s, err := New(m, p, nw); err == nil {
				s.Close()
				t.Errorf("%s, nw=%d: New accepted a vertex out of range", name, nw)
			}
		}
		s, err := New(good, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Rebuild(m, p); err == nil {
			t.Errorf("%s: Rebuild accepted a vertex out of range", name)
		}
		s.Close()
	}
}
