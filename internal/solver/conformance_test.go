package solver

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"eul3d/internal/dmsolver"
	"eul3d/internal/euler"
	"eul3d/internal/graph"
	"eul3d/internal/meshgen"
	"eul3d/internal/multigrid"
	"eul3d/internal/partition"
	"eul3d/internal/smsolver"
)

// TestCrossEngineConformance is the cross-engine bitwise conformance
// suite: one mesh sequence, every multigrid engine — the serial reference
// multigrid, the one-worker multigrid Open builds, the pooled
// shared-memory multigrid at several worker counts, and the
// distributed-memory multigrid (both sequential orchestration and
// concurrent MIMD) — asserting bitwise-identical solutions and residual
// histories.
//
// Bitwise identity across engines requires identical floating-point
// accumulation order: every engine here accumulates each vertex in the
// generated mesh's edge order — the pooled engine because each worker
// sweeps the edges touching its own vertices in that order, the
// one-processor distributed solver because its partition-local order is
// the mesh's. The norm reduction is blocked identically in all engines
// (euler.NormBlock). Multi-processor distributed runs reassociate
// per-vertex sums across partition boundaries and therefore agree to tight
// roundoff instead; that is asserted separately.
func TestCrossEngineConformance(t *testing.T) {
	for _, tc := range []struct {
		name          string
		gamma, levels int
	}{
		{"V-cycle-2-levels", 1, 2},
		{"W-cycle-3-levels", 2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			meshes, err := meshgen.Sequence(meshgen.DefaultChannel(10, 7, 5, 17), tc.levels)
			if err != nil {
				t.Fatal(err)
			}
			p := euler.DefaultParams(0.675, 0)
			const cycles = 5

			// Reference: the serial FAS multigrid.
			serial, err := multigrid.New(meshes, p, tc.gamma)
			if err != nil {
				t.Fatal(err)
			}
			refHist := make([]float64, cycles)
			for c := range refHist {
				refHist[c] = serial.Cycle()
			}
			refW := serial.Fine().W

			check := func(engine string, hist []float64, w []euler.State) {
				t.Helper()
				for c := range hist {
					if hist[c] != refHist[c] {
						t.Fatalf("%s: cycle %d residual %v, serial %v", engine, c, hist[c], refHist[c])
					}
				}
				if len(w) != len(refW) {
					t.Fatalf("%s: %d states, serial %d", engine, len(w), len(refW))
				}
				for i := range w {
					if w[i] != refW[i] {
						t.Fatalf("%s: vertex %d state %v, serial %v", engine, i, w[i], refW[i])
					}
				}
			}

			// The sequential multigrid.
			st, err := Open(meshes, p, Config{Gamma: tc.gamma})
			if err != nil {
				t.Fatal(err)
			}
			res, err := st.Run(Options{MaxCycles: cycles})
			if err != nil {
				t.Fatal(err)
			}
			check("sequential[mg]", res.History, res.FineSolution)
			st.Close()

			// Pooled shared-memory multigrid, several worker counts.
			for _, nw := range []int{1, 2, 3, 8} {
				mg, err := smsolver.NewMultigrid(meshes, p, tc.gamma, nw)
				if err != nil {
					t.Fatal(err)
				}
				hist := make([]float64, cycles)
				for c := range hist {
					hist[c] = mg.Cycle()
				}
				check(fmt.Sprintf("pooled[workers=%d]", nw), hist, mg.Fine().W)
				mg.Close()
			}

			// Distributed multigrid on one processor: partition-local index
			// order equals mesh order, so it is bitwise too — in both the
			// sequential orchestration and the concurrent MIMD mode.
			parts := make([][]int32, len(meshes))
			parts[0] = make([]int32, meshes[0].NV())
			dmSeq, err := dmsolver.NewMultigrid(meshes, parts, 1, p, tc.gamma)
			if err != nil {
				t.Fatal(err)
			}
			hist := make([]float64, cycles)
			for c := range hist {
				if hist[c], err = dmSeq.Cycle(); err != nil {
					t.Fatal(err)
				}
			}
			check("distributed[nproc=1]", hist, dmSeq.GatherSolution())

			dmConc, err := dmsolver.NewMultigrid(meshes, parts, 1, p, tc.gamma)
			if err != nil {
				t.Fatal(err)
			}
			for c := range hist {
				if hist[c], err = dmConc.CycleConcurrent(); err != nil {
					t.Fatal(err)
				}
			}
			check("distributed-mimd[nproc=1]", hist, dmConc.GatherSolution())

			// Multi-processor distributed: partition boundaries reassociate
			// the per-vertex sums, so agreement is to roundoff only — and
			// the scheme's discrete switches (sensor max, positivity guard)
			// amplify the reassociation noise by orders of magnitude over
			// the startup transient of this small mesh. The loose bound is a
			// sanity cross-check (real defects show up at O(1)), not part of
			// the bitwise contract established above.
			g, err := graph.FromEdges(meshes[0].NV(), meshes[0].Edges)
			if err != nil {
				t.Fatal(err)
			}
			finePart, err := partition.Partition(g, meshes[0].X, 4, partition.Spectral, 1)
			if err != nil {
				t.Fatal(err)
			}
			parts4 := make([][]int32, len(meshes))
			parts4[0] = finePart
			dm4, err := dmsolver.NewMultigrid(meshes, parts4, 4, p, tc.gamma)
			if err != nil {
				t.Fatal(err)
			}
			for c := range hist {
				norm, err := dm4.Cycle()
				if err != nil {
					t.Fatal(err)
				}
				if rel := relDiff(norm, refHist[c]); rel > 1e-4 {
					t.Fatalf("distributed[nproc=4]: cycle %d residual %v vs %v (rel %v)", c, norm, refHist[c], rel)
				}
			}
			w4 := dm4.GatherSolution()
			for i := range w4 {
				for k := 0; k < euler.NVar; k++ {
					if rel := relDiff(w4[i][k], refW[i][k]); rel > 1e-4 {
						t.Fatalf("distributed[nproc=4]: vertex %d var %d %v vs %v", i, k, w4[i][k], refW[i][k])
					}
				}
			}
		})
	}
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := 1.0
	if ab := abs64(a); ab > m {
		m = ab
	}
	if bb := abs64(b); bb > m {
		m = bb
	}
	return d / m
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestSingleGridSoAConformance pins the pooled engine's hot path directly
// against the serial []State reference: the reference euler.Disc.Step and
// the pooled smsolver.Solver on one mesh must produce bitwise-identical
// residual histories and solutions at every worker count — the state blocks and the chunking are
// memory-placement choices, not numerical ones. The same solver instances must also keep
// the engine's zero-allocation contract on the step path (stepAllocs).
func TestSingleGridSoAConformance(t *testing.T) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(10, 7, 5, 17))
	if err != nil {
		t.Fatal(err)
	}
	p := euler.DefaultParams(0.675, 0)
	const steps = 5

	// Serial reference: the reference stepper.
	d := euler.NewDisc(m, p)
	ws := euler.NewStepWorkspace(m.NV())
	refW := make([]euler.State, m.NV())
	d.InitUniform(refW)
	refHist := make([]float64, steps)
	for c := range refHist {
		refHist[c] = d.Step(refW, nil, ws)
	}

	for _, nw := range []int{1, 2, 3, 8} {
		s, err := smsolver.New(m, p, nw)
		if err != nil {
			t.Fatal(err)
		}
		w := make([]euler.State, m.NV())
		s.InitUniform(w)
		for c := 0; c < steps; c++ {
			if norm := s.Step(w, nil); norm != refHist[c] {
				t.Fatalf("workers=%d: step %d norm %v, serial %v", nw, c, norm, refHist[c])
			}
		}
		for i := range w {
			if w[i] != refW[i] {
				t.Fatalf("workers=%d: vertex %d state %v, serial %v", nw, i, w[i], refW[i])
			}
		}
		if allocs := stepAllocs(s, w, 10); allocs != 0 {
			t.Fatalf("workers=%d: 10 steps of the pooled step path allocate %d times", nw, allocs)
		}
		s.Close()
	}
}

// stepAllocs counts, exactly and once, the heap allocations of n
// steady-state steps of s. What used to leak into the count came from the
// runtime, not the step, and is fenced off here instead of retried away. A
// collection inside the window — the one this check used to force just
// before it included — runs whatever cleanups and finalizers it queued on
// the runtime's own goroutine and drops the central sudog cache, so GC is
// off for the window. And at GOMAXPROCS > 1 a pool worker that parks on one
// P and is woken on another carries its sudog over, and a P left with none
// allocates a new one: 1-6 stray allocations in 27 of 80 windows of 200
// steps at GOMAXPROCS 2, none in 100 on one P. So the window runs on one P
// (as testing.AllocsPerRun's does), after a warm-up step has stocked its
// cache.
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
