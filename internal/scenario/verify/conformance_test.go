package verify

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"eul3d/internal/dmsolver"
	"eul3d/internal/euler"
	"eul3d/internal/graph"
	"eul3d/internal/meshgen"
	"eul3d/internal/partition"
	"eul3d/internal/scenario"
	"eul3d/internal/smsolver"
)

// TestScenarioConformance extends the cross-engine bitwise suite to the
// scenario presets: on a scenario mesh, the reference stepper, the pooled
// engine at workers {1, 2, 8} (at one worker every region runs inline on
// the caller), and the distributed
// engine on one processor (sequential orchestration and concurrent MIMD) must produce
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
			steps := sc.Steps
			if steps > 25 {
				steps = 25 // the startup transient is where the limiter fires
			}

			// Sequential reference from the scenario's initial state.
			d := euler.NewDisc(m, p)
			ws := euler.NewStepWorkspace(m.NV())
			refW := sc.InitialState(m)
			refHist := make([]float64, steps)
			for c := range refHist {
				refHist[c] = d.Step(refW, nil, ws)
			}

			run := func(label string, nw int) {
				t.Helper()
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
				run(fmt.Sprintf("pooled[workers=%d]", nw), nw)
			}

			runDist := func(label string, part []int32, nproc int, cycle func(*dmsolver.Solver) (float64, error), tol float64) {
				t.Helper()
				dm, err := dmsolver.NewSingle(m, part, nproc, p)
				if err != nil {
					t.Fatal(err)
				}
				if err := dm.SetFineSolution(sc.InitialState(m)); err != nil {
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
			one := make([]int32, m.NV()) // everything on processor 0
			runDist("distributed[nproc=1]", one, 1, (*dmsolver.Solver).Cycle, 0)
			runDist("distributed-mimd[nproc=1]", one, 1, (*dmsolver.Solver).CycleConcurrent, 0)
			g, err := graph.FromEdges(m.NV(), m.Edges)
			if err != nil {
				t.Fatal(err)
			}
			four, err := partition.Partition(g, m.X, 4, partition.Spectral, 1)
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
