package verify

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"eul3d/internal/dmsolver"
	"eul3d/internal/euler"
	"eul3d/internal/graph"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/partition"
	"eul3d/internal/scenario"
	"eul3d/internal/smsolver"
)

// TestScenarioConformance extends the cross-engine bitwise suite to the
// scenario presets: on the pooled engine's view of a scenario mesh
// (smsolver.Solver.D.M, the order its sweeps accumulate in), the reference
// stepper, the pooled engine at workers {1, 2, 8} on the mesh itself, the
// pooled engine's serial-cutoff inline path, and the distributed engine on
// one processor (sequential orchestration and concurrent MIMD) must produce
// bitwise-identical residual histories and solutions from the scenario's
// initial state. The presets run with ConvexLimit and (for the unsteady
// ones) GlobalDt, so this is the bitwise check of the limiter and the
// global step across both statements of the operator and all three ways of
// driving them — the startup transient of the Sod diaphragm exercises the
// limited branch, not just the admissible fast path. On four processors
// the partition boundaries reassociate the vertex sums and the limiter
// amplifies that, so those rows are held to the sanity bound
// TestCrossEngineConformance uses for multi-processor runs.
func TestScenarioConformance(t *testing.T) {
	for _, name := range scenario.Names() {
		sc, err := scenario.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			m, err := meshgen.Channel(sc.Spec())
			if err != nil {
				t.Fatal(err)
			}
			p := sc.Params()
			cm := view(t, m, p)
			steps := sc.Steps
			if steps > 25 {
				steps = 25 // the startup transient is where the limiter fires
			}

			// Sequential reference from the scenario's initial state.
			d := euler.NewDisc(cm, p)
			ws := euler.NewStepWorkspace(cm.NV())
			refW := sc.InitialState(cm)
			refHist := make([]float64, steps)
			for c := range refHist {
				refHist[c] = d.Step(refW, nil, ws)
			}

			run := func(label string, cutoff, nw int) {
				t.Helper()
				defer func(old int) { smsolver.SerialCutoffEdges = old }(smsolver.SerialCutoffEdges)
				smsolver.SerialCutoffEdges = cutoff
				s, err := smsolver.New(m, p, nw)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				w := sc.InitialState(m)
				for c := 0; c < steps; c++ {
					if norm := s.Step(w, nil); norm != refHist[c] {
						t.Fatalf("%s: step %d norm %v, sequential %v", label, c, norm, refHist[c])
					}
				}
				for i := range w {
					if w[i] != refW[i] {
						t.Fatalf("%s: vertex %d state %v, sequential %v", label, i, w[i], refW[i])
					}
				}
			}

			for _, nw := range []int{1, 2, 8} {
				run("pooled", 0, nw)
				run("serial-cutoff", 1<<30, nw)
			}

			runDist := func(label string, part []int32, nproc int, cycle func(*dmsolver.Solver) (float64, error), tol float64) {
				t.Helper()
				dm, err := dmsolver.NewSingle(cm, part, nproc, p)
				if err != nil {
					t.Fatal(err)
				}
				if err := dm.SetFineSolution(sc.InitialState(cm)); err != nil {
					t.Fatal(err)
				}
				for c := 0; c < steps; c++ {
					norm, err := cycle(dm)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(norm-refHist[c]) > tol*math.Max(1, math.Abs(refHist[c])) {
						t.Fatalf("%s: step %d norm %v, sequential %v", label, c, norm, refHist[c])
					}
				}
				for i, st := range dm.GatherSolution() {
					for k := range st {
						if math.Abs(st[k]-refW[i][k]) > tol*math.Max(1, math.Abs(refW[i][k])) {
							t.Fatalf("%s: vertex %d state %v, sequential %v", label, i, st, refW[i])
						}
					}
				}
			}
			one := make([]int32, cm.NV()) // everything on processor 0
			runDist("distributed[nproc=1]", one, 1, (*dmsolver.Solver).Cycle, 0)
			runDist("distributed-mimd[nproc=1]", one, 1, (*dmsolver.Solver).CycleConcurrent, 0)
			g, err := graph.FromEdges(cm.NV(), cm.Edges)
			if err != nil {
				t.Fatal(err)
			}
			four, err := partition.Partition(g, cm.X, 4, partition.Spectral, 1)
			if err != nil {
				t.Fatal(err)
			}
			runDist("distributed[nproc=4]", four, 4, (*dmsolver.Solver).Cycle, 1e-4)
			runDist("distributed-mimd[nproc=4]", four, 4, (*dmsolver.Solver).CycleConcurrent, 1e-4)
		})
	}
}

// TestScenarioStepAllocs pins the zero-allocation contract of the pooled
// engine's step path under scenario parameters — the convex limiter
// and the global-dt branch must not introduce allocations into the hot
// loop.
func TestScenarioStepAllocs(t *testing.T) {
	for _, name := range scenario.Names() {
		sc, err := scenario.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			m, err := meshgen.Channel(sc.Spec())
			if err != nil {
				t.Fatal(err)
			}
			defer func(old int) { smsolver.SerialCutoffEdges = old }(smsolver.SerialCutoffEdges)
			smsolver.SerialCutoffEdges = 0
			s, err := smsolver.New(m, sc.Params(), 2)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			w := sc.InitialState(m)
			s.Step(w, nil) // the first step is the limiter-heavy one; warm it up
			if allocs := stepAllocs(s, w, 5); allocs != 0 {
				t.Fatalf("5 steps of the limited pooled step path allocate %d times", allocs)
			}
		})
	}
}

// view returns the pooled engine's view of m: m with its edge and
// boundary-face lists in the block layout's order.
func view(t *testing.T, m *mesh.Mesh, p euler.Params) *mesh.Mesh {
	t.Helper()
	s, err := smsolver.New(m, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	return s.D.M
}

// stepAllocs counts, exactly and once, the heap allocations of n
// steady-state steps of s, with GC off and on one P for the window: a
// collection inside it runs queued cleanups and finalizers and drops the
// central sudog cache, and at GOMAXPROCS > 1 a pool worker woken on another
// P than it parked on carries its sudog over, leaving a P that allocates a
// new one — the runtime's allocations, not the step's, which the old
// GC-then-retry-once check could only hope to miss (internal/solver's
// stepAllocs has the measurements).
func stepAllocs(s *smsolver.Solver, w []euler.State, n int) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s.Step(w, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		s.Step(w, nil)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
