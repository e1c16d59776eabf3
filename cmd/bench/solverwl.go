package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"eul3d/internal/color"
	"eul3d/internal/dmsolver"
	"eul3d/internal/euler"
	"eul3d/internal/flops"
	"eul3d/internal/graph"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/multigrid"
	"eul3d/internal/parti"
	"eul3d/internal/partition"
	"eul3d/internal/smsolver"
	"eul3d/internal/trace"
)

const (
	mach = 0.675 // the paper's transonic channel case
	// gateCycles is how many leading cycles the bitwise and roundoff gates
	// compare: the gate engines cost a cycle each per round, so more would
	// leave the window too few timed samples.
	gateCycles = 10
	// solveTol is the residual reduction that counts as solved. A quarter,
	// not the usual orders of magnitude: every engine must get there
	// inside one window, and all three histories cross it on a steep,
	// monotone stretch, so the crossing moves smoothly with the seed.
	solveTol = 0.25
	// setupRepeats complete rebuilds are spread through the window, after
	// the one that builds the engines the window measures.
	setupRepeats = 8
	// layerRepeats is how often a preprocessing layer is timed on its own.
	layerRepeats = 3
)

// e2e holds a workload's end-to-end values.
type e2e struct {
	setup, op, solve, speedup, rss float64
}

// unit is one engine stepped once per round of an interleaved window.
type unit struct {
	name    string
	threads int // width of the reference samples around each cycle
	cycle   func() (float64, error)
	rounds  int // 0: every round; n: only the first n (gate engines)
	times   series
	hist    []float64
}

// maxRounds bounds a window that has to be extended because the engine has
// not yet converged; no recorded size comes near it.
const maxRounds = 400

// interleave steps the units in turn, round after round, so that every unit
// sees the same mix of host states, until window has passed and engine's
// residual has fallen to solveTol (solve_s needs that crossing, and at the
// recorded sizes every window holds it with room to spare; the short windows
// of the traced pass and of -smoke run on until they do). between runs after
// each round with the fraction of the window used.
func (b *bench) interleave(tk *trace.Track, window time.Duration, units []*unit, engine *unit, between func(frac float64)) {
	runtime.GC() // the engines' construction garbage: see spaced
	start := time.Now()
	solved := false
	for round := 0; round < maxRounds && (time.Since(start) < window || !solved); round++ {
		for _, u := range units {
			if u.rounds > 0 && round >= u.rounds {
				continue
			}
			b.host.time(u.threads, &u.times, func() {
				b.rec.do(tk, u.name, int64(round), func() {
					norm, err := u.cycle()
					b.attempted++
					switch {
					case err != nil:
						b.failf("%s cycle %d: %v", u.name, round, err)
					case math.IsNaN(norm) || math.IsInf(norm, 0):
						b.failf("%s cycle %d: residual norm %v", u.name, round, norm)
					}
					u.hist = append(u.hist, norm)
				})
			})
		}
		_, solved = cyclesToTol(engine.hist, solveTol)
		if round == 0 {
			// Every engine is built and has touched its memory once. The
			// set-up repeats that follow only add garbage, and how much of
			// it is resident at once depends on where a collection falls.
			b.rss = peakRSSMB()
		}
		between(time.Since(start).Seconds() / window.Seconds())
	}
}

// spaced returns a between hook that times rebuild into s setupRepeats
// times, evenly through the window. The traced pass reports no set-up time
// and skips them.
func (b *bench) spaced(tk *trace.Track, s *series, rebuild func()) func(float64) {
	done := 0
	return func(frac float64) {
		if !b.layers && done < setupRepeats && frac >= float64(done+1)/float64(setupRepeats+1) {
			done++
			b.host.time(1, s, func() { b.rec.do(tk, "setup", int64(done), rebuild) })
			// Collect the rebuild's garbage now, outside any timing, so that
			// no concurrent mark phase runs under the cycles that follow.
			runtime.GC()
		}
	}
}

// gateBitwise counts a failed operation for every leading cycle on which
// the two histories differ at all.
func (b *bench) gateBitwise(what string, a, c []float64) {
	n := min(len(a), len(c), gateCycles)
	for i := 0; i < n; i++ {
		b.attempted++
		if a[i] != c[i] {
			b.failf("%s: cycle %d differs bitwise (%v vs %v)", what, i, a[i], c[i])
		}
	}
}

// gateClose counts a failed operation for every leading cycle on which the
// two histories differ by more than rel.
func (b *bench) gateClose(what string, a, c []float64, rel float64) {
	n := min(len(a), len(c), 2*gateCycles)
	for i := 0; i < n; i++ {
		b.attempted++
		if math.Abs(a[i]-c[i]) > rel*math.Abs(c[i]) {
			b.failf("%s: cycle %d off by %.3g relative (limit %.0g)", what, i, math.Abs(a[i]-c[i])/math.Abs(c[i]), rel)
		}
	}
}

// solved turns an engine's timed history into the end-to-end triple and the
// per-layer convergence numbers named by suffix.
func (b *bench) solved(suffix string, serial, engine *unit, setup *series) e2e {
	cycles, ok := cyclesToTol(engine.hist, solveTol)
	b.attempted++
	if !ok {
		b.failf("%s: residual did not fall to %.2f of its first value in %d cycles", engine.name, solveTol, len(engine.hist))
	}
	op := engine.times.quiet()
	wall := 0.0
	for i := 0; i < len(engine.times.raw) && float64(i) < cycles; i++ {
		wall += engine.times.raw[i]
	}
	b.res["solver.cycles_to_tol_"+suffix] = cycles
	b.res["solver.solve_wall_s_"+suffix] = wall
	return e2e{
		setup:   setup.quiet(),
		op:      op * 1e3,
		solve:   cycles * op,
		speedup: serial.times.quiet() / op,
		rss:     b.rss,
	}
}

// layerMS times f layerRepeats times on its own and records the quiet time.
func (b *bench) layerMS(tk *trace.Track, name string, f func()) {
	var s series
	for i := 0; i < layerRepeats; i++ {
		b.host.time(1, &s, func() { b.rec.do(tk, name, int64(i), f) })
	}
	b.res[name] = s.quiet() * 1e3
}

// allocsPer returns the heap allocations per call of f.
func allocsPer(n int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

func (b *bench) fineSpec() meshgen.ChannelSpec {
	return meshgen.DefaultChannel(b.sz.fine[0], b.sz.fine[1], b.sz.fine[2], b.cfg.seed)
}

// runSingleGrid measures the pooled single-grid engine against the
// sequential stepper, cycle about cycle.
func (b *bench) runSingleGrid(window time.Duration) e2e {
	tk := b.rec.track("single_grid")
	p := euler.DefaultParams(mach, 0)
	W := b.cfg.workers

	build := func() (*mesh.Mesh, *smsolver.Solver) {
		m := must(meshgen.Channel(b.fineSpec()))
		return m, must(smsolver.New(m, p, W))
	}
	var setup series
	var fine *mesh.Mesh
	var pooled *smsolver.Solver
	b.host.time(1, &setup, func() { b.rec.do(tk, "setup", 0, func() { fine, pooled = build() }) })
	defer pooled.Close()

	disc := euler.NewDisc(fine, p)
	ws := euler.NewStepWorkspace(fine.NV())
	wSer := make([]euler.State, fine.NV())
	disc.InitUniform(wSer)
	wPool := make([]euler.State, fine.NV())
	pooled.InitUniform(wPool)
	one := must(smsolver.New(fine, p, 1))
	defer one.Close()
	wOne := make([]euler.State, fine.NV())
	one.InitUniform(wOne)

	serial := &unit{name: "euler.Disc.Step", threads: 1, cycle: func() (float64, error) { return disc.Step(wSer, nil, ws), nil }}
	engine := &unit{name: "smsolver.Solver.Step", threads: W, cycle: func() (float64, error) { return pooled.Step(wPool, nil), nil }}
	gate := &unit{name: "smsolver.Solver.Step/w1", threads: 1, rounds: gateCycles, cycle: func() (float64, error) { return one.Step(wOne, nil), nil }}
	b.interleave(tk, window, []*unit{serial, engine, gate}, engine, b.spaced(tk, &setup, func() {
		_, again := build()
		again.Close()
	}))

	b.gateBitwise("pooled W workers vs 1 worker", engine.hist, gate.hist)
	b.gateClose("pooled vs sequential", engine.hist, serial.hist, 1e-8)
	out := b.solved("single", serial, engine, &setup)
	if !b.layers {
		return out
	}

	step, ser, w1 := engine.times.quiet(), serial.times.quiet(), gate.times.quiet()
	fl := flops.Step(int64(fine.NV()), int64(fine.NE()), int64(len(fine.BFaces)), len(p.Stages), euler.DissipStages, p.NSmooth)
	b.res["solver.serial_step_ms"] = ser * 1e3
	b.res["smsolver.step_ms"] = step * 1e3
	b.res["smsolver.step_ms_w1"] = w1 * 1e3
	b.res["smsolver.color_order_overhead"] = w1 / ser
	b.res["smsolver.parallel_eff"] = w1 / (float64(W) * step)
	b.res["smsolver.mflops"] = float64(fl) / step / 1e6
	b.res["smsolver.allocs_per_step"] = allocsPer(3, func() { pooled.Step(wPool, nil) })

	var edges, faces *color.Coloring
	b.layerMS(tk, "color.greedy_edges_ms", func() { edges = must(color.Greedy(fine.NV(), fine.Edges)) })
	tris := make([][3]int32, len(fine.BFaces))
	for i := range fine.BFaces {
		tris[i] = fine.BFaces[i].V
	}
	b.layerMS(tk, "color.greedy_faces_ms", func() { faces = must(color.GreedyFaces(fine.NV(), tris)) })
	b.layerMS(tk, "smsolver.new_ms", func() { must(smsolver.New(fine, p, W)).Close() })
	b.kernels(tk, fine, p, edges, faces)
	return out
}

// runWcycle measures the pooled 4-level W-cycle against the serial
// multigrid solver on the single_grid mesh.
func (b *bench) runWcycle(window time.Duration) e2e {
	tk := b.rec.track("wcycle")
	p := euler.DefaultParams(mach, 0)
	W := b.cfg.workers
	const levels, gamma = 4, 2

	build := func() ([]*mesh.Mesh, *smsolver.Multigrid) {
		ms := must(meshgen.Sequence(b.fineSpec(), levels))
		return ms, must(smsolver.NewMultigrid(ms, p, gamma, W))
	}
	var setup series
	var seq []*mesh.Mesh
	var pooled *smsolver.Multigrid
	b.host.time(1, &setup, func() { b.rec.do(tk, "setup", 0, func() { seq, pooled = build() }) })
	defer pooled.Close()
	ref := must(multigrid.New(seq, p, gamma))
	one := must(smsolver.NewMultigrid(seq, p, gamma, 1))
	defer one.Close()

	serial := &unit{name: "multigrid.Solver.Cycle", threads: 1, cycle: func() (float64, error) { return ref.Cycle(), nil }}
	engine := &unit{name: "smsolver.Multigrid.Cycle", threads: W, cycle: func() (float64, error) { return pooled.Cycle(), nil }}
	gate := &unit{name: "smsolver.Multigrid.Cycle/w1", threads: 1, rounds: gateCycles, cycle: func() (float64, error) { return one.Cycle(), nil }}
	b.interleave(tk, window, []*unit{serial, engine, gate}, engine, b.spaced(tk, &setup, func() {
		_, again := build()
		again.Close()
	}))

	b.gateBitwise("pooled W-cycle W workers vs 1 worker", engine.hist, gate.hist)
	b.gateClose("pooled vs serial W-cycle", engine.hist, serial.hist, 1e-8)
	out := b.solved("wcycle", serial, engine, &setup)
	if !b.layers {
		return out
	}

	b.res["multigrid.serial_cycle_ms"] = serial.times.quiet() * 1e3
	b.res["multigrid.cycle_ms"] = out.op
	b.res["multigrid.work_units"] = pooled.WorkUnits()
	b.res["multigrid.allocs_per_cycle"] = allocsPer(2, func() { pooled.Cycle() })
	b.layerMS(tk, "meshgen.sequence_ms", func() { must(meshgen.Sequence(b.fineSpec(), levels)) })
	var prolong *multigrid.TransferOp
	b.layerMS(tk, "multigrid.transfer_build_ms", func() {
		must(multigrid.BuildTransfer(seq[1], seq[0]))
		prolong = must(multigrid.BuildTransfer(seq[0], seq[1]))
	})
	coarse := make([]euler.State, seq[1].NV())
	fineSt := make([]euler.State, seq[0].NV())
	for i := range coarse {
		coarse[i] = p.Freestream
	}
	b.layerMS(tk, "multigrid.interp_ms", func() { prolong.Interp(coarse, fineSt) })
	plan := prolong.Plan(seq[1].NV())
	b.layerMS(tk, "multigrid.scatter_ms", func() { plan.Apply(fineSt, coarse) })
	return out
}

// distParts partitions every mesh of the sequence spectrally.
func distParts(ms []*mesh.Mesh, nproc int) [][]int32 {
	parts := make([][]int32, len(ms))
	for l, m := range ms {
		g := must(graph.FromEdges(m.NV(), m.Edges))
		parts[l] = must(partition.Partition(g, m.X, nproc, partition.Spectral, 1))
	}
	return parts
}

// runDistributed measures the PARTI-distributed 2-level W-cycle in
// sequential orchestration (there are more simulated processors than
// cores, so the MIMD mode is run for correctness only) against the serial
// multigrid solver.
func (b *bench) runDistributed(window time.Duration) e2e {
	tk := b.rec.track("distributed")
	p := euler.DefaultParams(mach, 0)
	P := b.sz.nproc
	spec := meshgen.DefaultChannel(b.sz.dist[0], b.sz.dist[1], b.sz.dist[2], b.cfg.seed)
	const levels, gamma = 2, 2

	build := func() ([]*mesh.Mesh, [][]int32, *dmsolver.Solver) {
		ms := must(meshgen.Sequence(spec, levels))
		parts := distParts(ms, P)
		return ms, parts, must(dmsolver.NewMultigrid(ms, parts, P, p, gamma))
	}
	var setup series
	var seq []*mesh.Mesh
	var parts [][]int32
	var dm *dmsolver.Solver
	b.host.time(1, &setup, func() { b.rec.do(tk, "setup", 0, func() { seq, parts, dm = build() }) })
	fineQ := partition.Evaluate(parts[0], seq[0].Edges, P)
	ref := must(multigrid.New(seq, p, gamma))
	mimd := must(dmsolver.NewMultigrid(seq, distParts(seq, P), P, p, gamma))

	serial := &unit{name: "multigrid.Solver.Cycle", threads: 1, cycle: func() (float64, error) { return ref.Cycle(), nil }}
	engine := &unit{name: "dmsolver.Solver.Cycle", threads: 1, cycle: dm.Cycle}
	gate := &unit{name: "dmsolver.Solver.CycleConcurrent", threads: 1, rounds: gateCycles, cycle: mimd.CycleConcurrent}
	b.interleave(tk, window, []*unit{serial, engine, gate}, engine, b.spaced(tk, &setup, func() { build() }))

	b.gateBitwise("MIMD vs sequential orchestration", engine.hist, gate.hist)
	b.gateClose("distributed vs serial multigrid", engine.hist, serial.hist, 1e-10)
	out := b.solved("distributed", serial, engine, &setup)
	if !b.layers {
		return out
	}

	n := float64(len(engine.hist))
	msgs, bytes := dm.Fabric.TotalStats()
	fineLev := dm.Levels[0]
	ghosts := 0
	for q := 0; q < P; q++ {
		ghosts += fineLev.GS.NumGhosts(q)
	}
	b.res["dmsolver.serial_ref_cycle_ms"] = serial.times.quiet() * 1e3
	b.res["dmsolver.cycle_ms"] = out.op
	b.res["simnet.msgs_per_cycle"] = float64(msgs) / n
	b.res["simnet.bytes_per_cycle"] = float64(bytes) / n
	b.res["simnet.resends"] = float64(dm.Fabric.Resends())
	b.res["parti.gathers_per_cycle"] = float64(dm.Comm.GatherState+dm.Comm.GatherFloat) / n
	b.res["parti.scatters_per_cycle"] = float64(dm.Comm.ScatterState+dm.Comm.ScatterFloat) / n
	b.res["parti.ghost_frac"] = float64(ghosts) / float64(seq[0].NV())
	b.res["partition.edge_cut_frac"] = fineQ.CutFraction
	b.res["partition.imbalance"] = fineQ.Imbalance

	// One full state exchange over the fine level's flow-variable schedule,
	// on the gate solver, whose counters nothing reads any more.
	b.layerMS(tk, "parti.gather_ms", func() {
		if err := mimd.Levels[0].SchedW.GatherStates(mimd.Fabric, mimd.Levels[0].W); err != nil {
			b.failf("parti gather: %v", err)
		}
	})
	b.layerMS(tk, "parti.scatter_ms", func() {
		if err := mimd.Levels[0].SchedW.ScatterAddStates(mimd.Fabric, mimd.Levels[0].Conv); err != nil {
			b.failf("parti scatter: %v", err)
		}
	})

	g := must(graph.FromEdges(seq[0].NV(), seq[0].Edges))
	b.layerMS(tk, "partition.spectral_ms", func() { must(partition.Partition(g, seq[0].X, P, partition.Spectral, 1)) })
	b.layerMS(tk, "dmsolver.new_ms", func() { must(dmsolver.NewMultigrid(seq, parts, P, p, gamma)) })
	b.scheduleBuild(tk, seq, parts, P)
	for _, lv := range []int{3, 4} {
		b.res[fmt.Sprintf("dmsolver.mg%d_norm_rel_diff", lv)] = b.multilevelDiff(tk, spec, lv, P, p)
	}
	return out
}

// scheduleBuild times the PARTI inspector the way dmsolver runs it: the
// flow-variable schedule of the fine level from its edge and boundary-face
// references, then the incremental schedule that adds what restriction to
// the coarse level needs and is not already ghosted.
func (b *bench) scheduleBuild(tk *trace.Track, seq []*mesh.Mesh, parts [][]int32, nproc int) {
	fine, coarse := seq[0], seq[1]
	restrict := must(multigrid.BuildTransfer(coarse, fine))
	refs := make([][]int32, nproc)
	for _, e := range fine.Edges {
		q := parts[0][e[0]]
		refs[q] = append(refs[q], e[0], e[1])
	}
	for i := range fine.BFaces {
		f := &fine.BFaces[i]
		q := parts[0][f.V[0]]
		refs[q] = append(refs[q], f.V[0], f.V[1], f.V[2])
	}
	fineRefs := make([][]int32, nproc)
	for v, q := range parts[1] {
		fineRefs[q] = append(fineRefs[q], restrict.Addr[v][:]...)
	}
	reused := 0
	b.layerMS(tk, "parti.schedule_build_ms", func() {
		gs := parti.NewGhostSpace(must(parti.NewDist(parts[0], nproc)))
		parti.BuildSchedule(gs, refs)
		_, reused = parti.BuildIncremental(gs, fineRefs)
	})
	b.res["parti.incremental_reused"] = float64(reused)
}

// multilevelDiff puts the known dmsolver multilevel mismatch on the ledger:
// the relative difference between the distributed and the serial residual
// norm after ten W-cycles on a sequence of the given depth, with every
// level partitioned spectrally. At two levels it is roundoff.
func (b *bench) multilevelDiff(tk *trace.Track, spec meshgen.ChannelSpec, levels, nproc int, p euler.Params) float64 {
	var diff float64
	b.rec.do(tk, fmt.Sprintf("dmsolver.mg%d", levels), int64(levels), func() {
		ms := must(meshgen.Sequence(spec, levels))
		dm := must(dmsolver.NewMultigrid(ms, distParts(ms, nproc), nproc, p, 2))
		ref := must(multigrid.New(ms, p, 2))
		var a, c float64
		for i := 0; i < 10; i++ {
			a = must(dm.Cycle())
			c = ref.Cycle()
		}
		diff = math.Abs(a-c) / math.Abs(c)
	})
	return diff
}
