package dmsolver

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"eul3d/internal/euler"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/runloop"
	"eul3d/internal/simnet"
)

// workerCounts returns the worker counts the executor is held to on P
// processors: 1, 2, 3 and P, those up to P, each once.
func workerCounts(nproc int) []int {
	var ws []int
	for _, w := range []int{1, 2, 3, nproc} {
		if w <= nproc && !slices.Contains(ws, w) {
			ws = append(ws, w)
		}
	}
	return ws
}

// fixtureParts partitions every level of meshes over nproc processors on
// its own (spectrally; all on processor 0 when nproc is 1).
func fixtureParts(t *testing.T, spec meshgen.ChannelSpec, levels, nproc int) ([]*mesh.Mesh, [][]int32) {
	t.Helper()
	if nproc > 1 {
		return independentParts(t, spec, levels, nproc)
	}
	meshes, err := meshgen.Sequence(spec, levels)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]int32, levels)
	for l, m := range meshes {
		parts[l] = make([]int32, m.NV())
	}
	return meshes, parts
}

// run is what one solve leaves that the executor could change: the
// history, the fine solution, the exchange counters and the fabric's
// traffic.
type run struct {
	hist        []float64
	sol         []euler.State
	comm        CommCounters
	msgs, bytes int64
}

func cycleOn(t *testing.T, s *Solver, w, cycles int) run {
	t.Helper()
	s.workers = w
	var r run
	for c := 0; c < cycles; c++ {
		norm, err := s.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		r.hist = append(r.hist, norm)
	}
	if len(s.execs) != 1 || len(s.execs[0].blocks) != w {
		t.Fatalf("Cycle did not run on %d workers", w)
	}
	r.sol, r.comm = s.GatherSolution(), s.Comm
	r.msgs, r.bytes = s.Fabric.TotalStats()
	return r
}

// TestCycleBitwiseAcrossWorkers: the executor maps P processors onto W
// workers in contiguous blocks, and nothing a processor computes or sends
// depends on which worker runs it. For P in {1, 3, 4, 8} — at W = 2 and
// P = 3 the blocks are uneven — and W in {1, 2, 3, P}, the single grid and
// 2- and 3-level W-cycles give the W = 1 run's history, solution,
// counters and traffic bit for bit.
func TestCycleBitwiseAcrossWorkers(t *testing.T) {
	const cycles = 3
	p := euler.DefaultParams(0.675, 0)
	for _, nproc := range []int{1, 3, 4, 8} {
		for _, levels := range []int{1, 2, 3} {
			meshes, parts := fixtureParts(t, meshgen.DefaultChannel(12, 8, 6, 17), levels, nproc)
			mk := func() *Solver {
				s, err := NewMultigrid(meshes, parts, nproc, p, 2)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			ref := cycleOn(t, mk(), 1, cycles)
			for _, w := range workerCounts(nproc)[1:] {
				got := cycleOn(t, mk(), w, cycles)
				if !slices.Equal(got.hist, ref.hist) {
					t.Errorf("P = %d, %d level(s), W = %d: history %v, W = 1 %v", nproc, levels, w, got.hist, ref.hist)
				}
				if !slices.Equal(got.sol, ref.sol) {
					t.Errorf("P = %d, %d level(s), W = %d: solution differs from W = 1", nproc, levels, w)
				}
				if got.comm != ref.comm || got.msgs != ref.msgs || got.bytes != ref.bytes {
					t.Errorf("P = %d, %d level(s), W = %d: counters %+v and %d msgs %d bytes, W = 1 %+v and %d msgs %d bytes",
						nproc, levels, w, got.comm, got.msgs, got.bytes, ref.comm, ref.msgs, ref.bytes)
				}
			}
		}
	}
}

// TestFaultPlanRunsOneWorker: with a fault plan attached Cycle runs one
// worker whatever the host, so the plan's wildcard events strike the same
// sends every time. The same RandomFaultPlan twice at GOMAXPROCS 2 —
// message faults and a crash — gives the same fault counts, the same
// replays per processor and the same history.
func TestFaultPlanRunsOneWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const cycles = 8
	mix := simnet.FaultMix{Drops: 3, Duplicates: 2, Corruptions: 2, Delays: 2, Reorders: 2, CrashNode: 1, CrashCycle: 3}
	type outcome struct {
		stats   simnet.FaultStats
		resends int64
		sent    [][2]int64
		hist    []float64
	}
	solve := func() outcome {
		s := chaosMultigridSolver(t)
		if s.workers != 2 {
			t.Fatalf("W = %d at GOMAXPROCS 2 on 4 processors, want 2", s.workers)
		}
		plan := simnet.RandomFaultPlan(11, mix)
		s.Fabric.SetFaultPlan(plan)
		res, err := s.Run(runloop.Options{MaxCycles: cycles, CheckpointEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Recoveries != 1 {
			t.Fatalf("%d recoveries, want 1", res.Recoveries)
		}
		if len(s.execs) != 1 || len(s.execs[0].blocks) != 1 {
			t.Fatal("Cycle under a fault plan did not run on one worker")
		}
		o := outcome{stats: plan.Stats(), resends: s.Fabric.Resends(), hist: res.History}
		for q := 0; q < s.NProc; q++ {
			m, b := s.Fabric.Stats(q)
			o.sent = append(o.sent, [2]int64{m, b})
		}
		return o
	}
	a, b := solve(), solve()
	if a.stats != b.stats || a.resends != b.resends || !slices.Equal(a.sent, b.sent) {
		t.Errorf("faults differ between two runs of one plan: %+v, %d resends, sent %v; then %+v, %d resends, sent %v",
			a.stats, a.resends, a.sent, b.stats, b.resends, b.sent)
	}
	if a.resends == 0 {
		t.Error("the plan healed nothing: the test has no teeth")
	}
	if !slices.Equal(a.hist, b.hist) {
		t.Errorf("histories differ: %v, then %v", a.hist, b.hist)
	}
}

// poolWorkers counts the goroutines of the whole test binary that run a
// forkjoin pool's worker loop: the goroutines a solver's pools start.
func poolWorkers() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "forkjoin.(*Pool).worker(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// settledPoolWorkers lets the pools of solvers earlier tests dropped be
// collected and shut down, and returns the pool-worker count once two
// collections in a row have left it where it was.
func settledPoolWorkers(t *testing.T) int {
	n, still := poolWorkers(), 0
	for deadline := time.Now().Add(10 * time.Second); still < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("the pool workers earlier tests left never settled: %d", n)
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		m := poolWorkers()
		if still++; m != n {
			n, still = m, 0
		}
	}
	return n
}

// TestDroppedSolverStopsItsWorkers: the workers reference only their pool,
// so a solver dropped after cycling on several workers is collected and its
// pools shut down. It counts pool workers alone, after the ones earlier
// tests dropped are gone, so no other test's goroutines come or go inside
// its count.
func TestDroppedSolverStopsItsWorkers(t *testing.T) {
	before := settledPoolWorkers(t)
	func() {
		s := chaosMultigridSolver(t)
		s.workers = 2
		if _, err := s.Cycle(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CycleConcurrent(); err != nil {
			t.Fatal(err)
		}
		if n := poolWorkers(); n < before+1+3 {
			t.Fatalf("%d pool workers with the solver's pools up, %d before", n, before)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for poolWorkers() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d pool workers after the solver was dropped, %d before", poolWorkers(), before)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
