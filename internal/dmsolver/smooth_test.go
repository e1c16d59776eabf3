package dmsolver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/parti"
	"eul3d/internal/simnet"
)

// raggedPartition deals the vertices to processors at random: nearly every
// edge is cut, every processor neighbours every other, and the local
// numbering has nothing to do with the mesh's.
func raggedPartition(nv, nproc int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	part := make([]int32, nv)
	for v := range part {
		part[v] = int32(rng.Intn(nproc))
	}
	return part
}

// globalOf returns the global id behind local slot li of processor p.
func globalOf(lev *Level, p int, li int32) int32 {
	if n := lev.Dist.Count(p); int(li) >= n {
		return lev.GS.Ghosts(p)[int(li)-n]
	}
	return lev.Dist.L2G[p][li]
}

// TestHaloStructure pins what buildLevel promises of the symmetric halo and
// the rows: the ghost regions in build order with SchedW's slots where they
// always were, the halo disjoint from them and exactly the back neighbours
// SchedW leaves out, and row i of every processor listing — in local slots
// below SmoothSpan — the global neighbours of its vertex in global edge
// order, whoever owns it.
func TestHaloStructure(t *testing.T) {
	m, spectral := channelAndPartition(t, 10, 6, 4, 4)
	// The rows of the whole mesh, in edge order.
	rows := make([][]int32, m.NV())
	for _, e := range m.Edges {
		rows[e[0]] = append(rows[e[0]], e[1])
		rows[e[1]] = append(rows[e[1]], e[0])
	}
	for name, part := range map[string][]int32{"spectral": spectral, "ragged": raggedPartition(m.NV(), 4, 3)} {
		s, err := NewSingle(m, part, 4, euler.DefaultParams(0.675, 0))
		if err != nil {
			t.Fatal(err)
		}
		lev := s.Levels[0]
		if lev.SchedHalo.Items() == 0 {
			t.Fatalf("%s: the halo is empty: the fixture exercises nothing", name)
		}
		haloItems := 0
		for p := 0; p < s.NProc; p++ {
			n := lev.Dist.Count(p)
			if !(n <= lev.EdgeSpan[p] && lev.EdgeSpan[p] <= lev.SmoothSpan[p] && lev.SmoothSpan[p] == lev.GS.TotalSize(p)) {
				t.Fatalf("%s, processor %d: spans %d <= %d <= %d = %d violated", name, p, n, lev.EdgeSpan[p], lev.SmoothSpan[p], lev.GS.TotalSize(p))
			}
			haloItems += lev.SmoothSpan[p] - lev.EdgeSpan[p]
			for _, e := range lev.Edges[p] {
				if int(e[0]) >= n || int(e[1]) >= lev.EdgeSpan[p] {
					t.Fatalf("%s, processor %d: edge %v leaves the edge span %d", name, p, e, lev.EdgeSpan[p])
				}
			}
			if len(lev.AdjStart[p]) != n+1 || int(lev.AdjStart[p][n]) != len(lev.Adj[p]) {
				t.Fatalf("%s, processor %d: row table of %d entries over %d for %d vertices", name, p, len(lev.AdjStart[p]), len(lev.Adj[p]), n)
			}
			for li := 0; li < n; li++ {
				row, want := lev.Adj[p][lev.AdjStart[p][li]:lev.AdjStart[p][li+1]], rows[lev.Dist.L2G[p][li]]
				if len(row) != len(want) {
					t.Fatalf("%s, processor %d, vertex %d: row of %d, degree %d", name, p, li, len(row), len(want))
				}
				for k, slot := range row {
					if slot < 0 || int(slot) >= lev.SmoothSpan[p] {
						t.Fatalf("%s, processor %d, vertex %d: row entry %d outside the smoothing span %d", name, p, li, slot, lev.SmoothSpan[p])
					}
					if g := globalOf(lev, p, slot); g != want[k] {
						t.Fatalf("%s, processor %d, vertex %d: row entry %d is global %d, the edge list's is %d", name, p, li, k, g, want[k])
					}
				}
			}
		}
		if haloItems != lev.SchedHalo.Items() || lev.smoothSched.Items() != lev.SchedW.Items()+lev.SchedHalo.Items() {
			t.Errorf("%s: %d halo slots, SchedHalo moves %d, the merged schedule %d of SchedW's %d + that",
				name, haloItems, lev.SchedHalo.Items(), lev.smoothSched.Items(), lev.SchedW.Items())
		}
	}
}

// TestSmootherPartitionIndependent: rows in global edge order make the
// smoother's per-vertex sum one flat sum whose order no partition changes, so
// on bitwise-equal owned inputs — here a field that is a function of the
// global vertex id — it returns bitwise-equal outputs for every partition
// and every processor count, under both drivers, for even and odd sweep
// counts: the sequential engine's own SmoothResiduals, bit for bit.
func TestSmootherPartitionIndependent(t *testing.T) {
	m, _ := channelAndPartition(t, 10, 6, 4, 2)
	field := func(g int32) euler.State {
		x := float64(g)
		return euler.State{math.Sin(x), 1e3 * math.Cos(3*x), x * 1e-7, -1 / (1 + x), math.Sqrt(x)}
	}
	for _, sweeps := range []int{1, 2, 3} {
		p := euler.DefaultParams(0.675, 0)
		p.NSmooth = sweeps
		want := make([]euler.State, m.NV())
		for g := range want {
			want[g] = field(int32(g))
		}
		euler.NewDisc(m, p).SmoothResiduals(want)

		for _, nproc := range []int{1, 2, 4, 8} {
			_, spectral := channelAndPartition(t, 10, 6, 4, max(nproc, 2))
			if nproc == 1 {
				spectral = make([]int32, m.NV())
			}
			for name, part := range map[string][]int32{"spectral": spectral, "ragged": raggedPartition(m.NV(), nproc, int64(nproc))} {
				for _, w := range workerCounts(nproc) {
					s, err := NewSingle(m, part, nproc, p)
					if err != nil {
						t.Fatal(err)
					}
					lev := s.Levels[0]
					for q := 0; q < nproc; q++ {
						for li, g := range lev.Dist.L2G[q] {
							lev.Res[q][li] = field(g)
						}
					}
					if err := onWorkers(s, w, func(x driver) error { return s.smooth(x, lev, lev.Res) }); err != nil {
						t.Fatal(err)
					}
					for q := 0; q < nproc; q++ {
						for li, g := range lev.Dist.L2G[q] {
							if lev.Res[q][li] != want[g] {
								t.Fatalf("%d sweeps, P = %d, %s, W = %d: vertex %d on processor %d: %v, sequential engine %v",
									sweeps, nproc, name, w, g, q, lev.Res[q][li], want[g])
							}
						}
					}
				}
			}
		}
	}
}

// poisonBeforeSmoothGather returns a driver that runs the program on x and,
// ahead of every gather of a smoothing iterate, overwrites every ghost slot
// of the iterate with NaN on the processors x executes: a neighbour the
// merged schedule does not fill reaches an owned sum as NaN.
func poisonBeforeSmoothGather(x driver) driver {
	nan := math.NaN()
	return hookDriver{x, func(x driver, dir parti.Dir, sch *parti.Schedule, lev *Level, a parti.Arrays) {
		if sch != lev.smoothSched {
			return
		}
		each(x, func(p int) {
			ghosts := a.States[0][p][lev.Dist.Count(p):]
			for i := range ghosts {
				ghosts[i] = euler.State{nan, nan, nan, nan, nan}
			}
		})
	}}
}

// withoutHalo runs the program on x with the smoother's gathers sent through
// SchedW alone: the parent's ghost layer, which the rows outgrow.
type withoutHalo struct{ driver }

func (d withoutHalo) exchange(dir parti.Dir, sch *parti.Schedule, lev *Level, a parti.Arrays) error {
	if sch == lev.smoothSched {
		sch = lev.SchedW
	}
	return d.driver.exchange(dir, sch, lev, a)
}

// TestSmootherHaloComplete: with every ghost slot of the iterate poisoned
// before each sweep's gather — residuals and corrections, every level of a
// 3-level W-cycle on independent partitions, both drivers — the history
// stays finite and does not move by a bit: the one gather through SchedW +
// SchedHalo delivers every neighbour a row names. Without the halo it does
// not (the test's teeth).
func TestSmootherHaloComplete(t *testing.T) {
	const cycles, nproc = 3, 4
	p := euler.DefaultParams(0.675, 0)
	meshes, parts := independentParts(t, meshgen.DefaultChannel(12, 8, 6, 17), 3, nproc)
	mk := func() *Solver {
		s, err := NewMultigrid(meshes, parts, nproc, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Teeth. A NaN in a smoothed residual need not survive to the norm — the
	// positivity guard reverts the vertex's update — but it moves the history.
	clean, holed := mk(), mk()
	moved := false
	for c := 0; c < 2; c++ {
		na, err := clean.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		nb, err := holed.cycle(poisonBeforeSmoothGather(withoutHalo{sequential(holed)}), 0)
		if err != nil {
			t.Fatal(err)
		}
		moved = moved || na != nb
	}
	if !moved {
		t.Fatal("smoothing through SchedW alone went unnoticed: the test has no teeth")
	}

	for _, mode := range []struct {
		name     string
		clean    func(*Solver) (float64, error)
		poisoned func(*Solver) (float64, error)
	}{
		{"seq", (*Solver).Cycle, func(s *Solver) (float64, error) { return wrappedCycle(s, 1, poisonBeforeSmoothGather) }},
		{"mimd", (*Solver).CycleConcurrent, func(s *Solver) (float64, error) { return wrappedCycle(s, s.NProc, poisonBeforeSmoothGather) }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			a, b := mk(), mk()
			for c := 0; c < cycles; c++ {
				na, err := mode.clean(a)
				if err != nil {
					t.Fatal(err)
				}
				nb, err := mode.poisoned(b)
				if err != nil {
					t.Fatal(err)
				}
				if math.IsNaN(nb) || na != nb {
					t.Fatalf("cycle %d: norm %v with every smoothing ghost poisoned, %v clean", c, nb, na)
				}
			}
			wa, wb := a.GatherSolution(), b.GatherSolution()
			for i := range wa {
				if wa[i] != wb[i] {
					t.Fatalf("vertex %d differs after %d poisoned cycles", i, cycles)
				}
			}
		})
	}
}

// mergedPair returns a (sender, receiver) pair of a gather through merged
// that at least two of its members load, so that one message between the two
// really is a merged one; the lowest such pair, for reproducibility.
func mergedPair(t *testing.T, merged *parti.Schedule, members ...*parti.Schedule) (from, to int) {
	t.Helper()
	best := [2]int{-1, -1}
	for pair := range merged.PairVolumes() {
		loaded := 0
		for _, m := range members {
			if m != nil && m.PairVolumes()[pair] > 0 {
				loaded++
			}
		}
		if loaded >= 2 && (best[0] < 0 || pair[0] < best[0] || pair[0] == best[0] && pair[1] < best[1]) {
			best = pair
		}
	}
	if best[0] < 0 {
		t.Fatal("fixture: no processor pair carries two members of the merged schedule")
	}
	return best[0], best[1]
}

// TestFaultsOnMergedMessagesHeal: a drop, a duplicate and a corruption, each
// aimed at one merged message — a smoothing gather through SchedW +
// SchedHalo, and the forcing scatter-add through SchedCoarse + SchedW +
// SchedHalo — heal to the fault-free history and solution bitwise, under
// Run, whose Cycle a fault plan puts on one worker, and stepping
// CycleConcurrent, a worker per processor each healing its own receives.
// The per-pair sequence number to strike is read off a dry run of the same
// plan.
func TestFaultsOnMergedMessagesHeal(t *testing.T) {
	const cycles, nproc = 3, 4
	p := euler.DefaultParams(0.675, 0)
	meshes, parts := independentParts(t, meshgen.DefaultChannel(10, 6, 4, 17), 2, nproc)
	mk := func() *Solver {
		s, err := NewMultigrid(meshes, parts, nproc, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// The dry run: count every pair's messages up to the first execution of
	// each target exchange.
	dry := mk()
	fine, coarse := dry.Levels[0], dry.Levels[1]
	type target struct {
		name     string
		sched    *parti.Schedule // of the dry-run solver
		dir      parti.Dir
		from, to int // message direction: a scatter-add runs against its schedule's gather
		seq      uint64
		seen     bool
	}
	gf, gt := mergedPair(t, fine.smoothSched, fine.SchedW, fine.SchedHalo)
	st, sf := mergedPair(t, coarse.transferSched, coarse.SchedCoarse, coarse.SchedW, coarse.SchedHalo)
	targets := []*target{
		{name: "smoothing gather", sched: fine.smoothSched, dir: parti.Gather, from: gf, to: gt},
		{name: "forcing scatter-add", sched: coarse.transferSched, dir: parti.ScatterAdd, from: sf, to: st},
	}
	sent := map[[2]int]uint64{}
	count := hookDriver{sequential(dry), func(_ driver, dir parti.Dir, sch *parti.Schedule, _ *Level, _ parti.Arrays) {
		for _, tg := range targets {
			if !tg.seen && sch == tg.sched && dir == tg.dir {
				tg.seq, tg.seen = sent[[2]int{tg.from, tg.to}], true
			}
		}
		for pair := range sch.PairVolumes() {
			if dir == parti.ScatterAdd {
				pair = [2]int{pair[1], pair[0]}
			}
			sent[pair]++
		}
	}}
	if _, err := dry.cycle(count, 0); err != nil {
		t.Fatal(err)
	}

	for _, concurrent := range []bool{false, true} {
		run := func(s *Solver) (*RunResult, error) { return s.Run(RunOptions{MaxCycles: cycles}) }
		if concurrent {
			run = func(s *Solver) (*RunResult, error) { return stepConcurrent(s, cycles) }
		}
		ref, err := run(mk())
		if err != nil {
			t.Fatal(err)
		}
		for _, tg := range targets {
			if !tg.seen {
				t.Fatalf("the dry run never reached the %s", tg.name)
			}
			for _, kind := range []simnet.FaultKind{simnet.FaultDrop, simnet.FaultDuplicate, simnet.FaultCorrupt} {
				t.Run(fmt.Sprintf("%s/%s/concurrent=%v", tg.name, kind, concurrent), func(t *testing.T) {
					s := mk()
					plan := simnet.NewFaultPlan(simnet.FaultEvent{Kind: kind, Src: tg.from, Dst: tg.to, Seq: tg.seq})
					s.Fabric.SetFaultPlan(plan)
					res, err := run(s)
					if err != nil {
						t.Fatalf("run under a %s: %v", kind, err)
					}
					if plan.Unfired() != 0 {
						t.Fatalf("the %s never fired", kind)
					}
					if kind != simnet.FaultDuplicate && s.Fabric.Resends() == 0 {
						t.Errorf("a %s healed without a resend", kind)
					}
					sameRun(t, res, ref)
				})
			}
		}
	}
}

// stepConcurrent runs cycles cycles of CycleConcurrent, announcing each to
// the fabric as Run does, and returns the history and gathered solution.
func stepConcurrent(s *Solver, cycles int) (*RunResult, error) {
	res := &RunResult{}
	for c := 0; c < cycles; c++ {
		s.Fabric.BeginCycle(c)
		norm, err := s.CycleConcurrent()
		if err != nil {
			return nil, err
		}
		res.History = append(res.History, norm)
	}
	res.FineSolution = s.GatherSolution()
	return res, nil
}

// sameRun fails unless two runs have bitwise the same history and solution.
func sameRun(t *testing.T, got, want *RunResult) {
	t.Helper()
	if len(got.History) != len(want.History) {
		t.Fatalf("%d history entries, want %d", len(got.History), len(want.History))
	}
	for i := range want.History {
		if got.History[i] != want.History[i] {
			t.Fatalf("history[%d] = %v, want %v (bitwise)", i, got.History[i], want.History[i])
		}
	}
	for i := range want.FineSolution {
		if got.FineSolution[i] != want.FineSolution[i] {
			t.Fatalf("solution vertex %d differs", i)
		}
	}
}

// TestIdleCoarseProcessorCyclesAndRecovers: a processor that owns nothing on
// the coarse level — no edges, no rows, an empty halo, nothing to send or
// receive through any of that level's schedules — idles through the level's
// phases, and the run survives its crash, and a busy neighbour's, bitwise.
func TestIdleCoarseProcessorCyclesAndRecovers(t *testing.T) {
	const cycles, nproc, idle = 8, 4, 3
	p := euler.DefaultParams(0.675, 0)
	meshes, parts := independentParts(t, meshgen.DefaultChannel(10, 6, 4, 17), 2, nproc)
	_, three := independentParts(t, meshgen.DefaultChannel(10, 6, 4, 17), 2, nproc-1)
	parts[1] = three[1] // the coarse level on processors 0..2 only
	mk := func() *Solver {
		s, err := NewMultigrid([]*mesh.Mesh{meshes[0], meshes[1]}, parts, nproc, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	coarse := mk().Levels[1]
	if coarse.Dist.Count(idle) != 0 || len(coarse.Adj[idle]) != 0 || len(coarse.AdjStart[idle]) != 1 ||
		coarse.SmoothSpan[idle] != 0 || len(coarse.Edges[idle]) != 0 {
		t.Fatalf("processor %d is not idle on the coarse level: %d vertices, %d row entries, span %d",
			idle, coarse.Dist.Count(idle), len(coarse.Adj[idle]), coarse.SmoothSpan[idle])
	}
	for pair := range coarse.transferSched.PairVolumes() {
		// It still receives prolongation ghosts (it owns fine vertices), but
		// owns nothing to send.
		if pair[0] == idle {
			t.Fatalf("the idle processor sends coarse values to %d", pair[1])
		}
	}
	ref, err := mk().Run(RunOptions{MaxCycles: cycles})
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range []int{idle, 0} {
		s := mk()
		plan := simnet.NewFaultPlan(simnet.FaultEvent{Kind: simnet.FaultCrash, Node: node, Cycle: 5})
		s.Fabric.SetFaultPlan(plan)
		res, err := s.Run(RunOptions{MaxCycles: cycles, CheckpointEvery: 3})
		if err != nil {
			t.Fatalf("crash of node %d: %v", node, err)
		}
		if res.Recoveries != 1 || plan.Unfired() != 0 {
			t.Errorf("crash of node %d: %d recoveries, %d faults never fired", node, res.Recoveries, plan.Unfired())
		}
		sameRun(t, res, ref)
	}
}
