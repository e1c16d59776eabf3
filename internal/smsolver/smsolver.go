// Package smsolver is the shared-memory parallel implementation of the
// flow solver, the counterpart of the paper's Cray Y-MP C90 port (Section
// 3). The C90 colors edges because its vector pipes need loops free of
// recurrences; scalar workers on a cache machine need only that no two of
// them write one vertex, and the engine gets that from ownership instead —
// the decomposition of the paper's distributed-memory port. Each worker
// owns the contiguous vertex range it takes in every vertex loop, walks, in
// the mesh's own order, every edge and boundary face that touches one of
// its vertices (layout.go), computes each once in the stored orientation
// and adds it only into the ends it owns; an edge cut by the ranges is
// computed by both its owners. Every vertex thus receives its additions in
// the mesh's edge order, from one worker: a pooled engine is *bitwise*
// euler.Disc.Step (and a pooled multigrid bitwise multigrid.Solver) on any
// mesh at any worker count, and the sequential engine is this one at one
// worker (tests assert all of it).
//
// Execution uses a persistent worker pool (internal/forkjoin): the workers
// are spawned once, poll for the next region before they park, and are
// driven through prebuilt per-worker tables; all scratch is solver-owned, so
// a steady-state Step (and multigrid Cycle) performs zero heap allocations.
// The kernels run on blocks (euler.StateSoA) of one 40-byte State record per
// vertex — the layout of the public []State itself, chosen over five
// component streams because every edge reads a whole record at both ends
// (EXPERIMENTS.md, "One record per vertex") — so the caller's solution is
// the step's solution block and nothing is converted: five scratch blocks
// per level, whose lifetimes levelEngine documents. The fused preamble and
// update sweeps refresh the per-vertex terms (pressure, 1/rho, sound speed)
// the edge loops read and zero the next accumulators.
// A stage makes one region of edge and face sweeps (euler.EdgeSweepSoAKernel
// and BFaceSweepSoAKernel) for everything that reads w alone — the
// convective flux always, dissipation pass 1 while it is re-evaluated, the
// spectral radii on stage 0 — and, on the dissipation stages, a second
// edge region for the blended flux: 31 regions a five-stage step with two
// smoothing sweeps, whatever the mesh. The residual averaging is a
// vertex-parallel gather over the layout's adjacency, whose rows list the
// neighbours in the order the edge sweep would meet them, so each Jacobi
// sweep is that sweep's arithmetic bit for bit at one barrier. The
// per-block residual-norm partials are padded to cache lines so concurrent
// block writers never share one. A mesh too small to give every worker
// minChunk vertices wakes fewer of them, down to running inline on the
// caller — ownership never affects results. Every level of every size is
// pooled: the pool's workers poll for the next fork, so a region costs
// about what its arithmetic costs even on a coarse grid (EXPERIMENTS.md, "A
// pool that stays awake").
// The engine/levelEngine split in this file lets the same N parked workers
// drive either a single grid (Solver) or every level of a FAS multigrid
// sequence (Multigrid, multigrid.go). There a restriction forms the coarse
// residual R(w') for the forcing as the front half of the coarse step's
// stage 0 — the snapshot and vertex terms, the sweep with the spectral
// radii, the switch with the time steps, pass 2 — and the fresh visit that
// follows (multigrid.Levels.Step) starts at its combine: the same
// arithmetic on the same inputs, so bitwise, four regions fewer (27), and
// 446 regions a 4-level W-cycle. Close releases the workers; a solver
// dropped without Close is cleaned up by the garbage collector.
package smsolver

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"eul3d/internal/euler"
	"eul3d/internal/flops"
	"eul3d/internal/forkjoin"
	"eul3d/internal/mesh"
	"eul3d/internal/multigrid"
	"eul3d/internal/perf"
	"eul3d/internal/trace"
)

// taskKind names one parallel region; exec dispatches on it so that
// forking never builds a closure.
type taskKind uint8

const (
	tInit         taskKind = iota // w0 snapshot + vertex terms + accumulator zeroing (fused)
	tSweep                        // the stage's edge parts of {spectral radii, convective flux, Laplacian + sensor sums}, then its face parts
	tNu                           // sensor sums -> shock switch (+ local time steps on stage 0)
	tDiss2                        // blended dissipative flux
	tCombine                      // resS = convS - dissS (+ forcing)
	tNorm                         // block partial sums of the residual norm
	tSmoothGather                 // one whole Jacobi sweep, gather form over the adjacency
	tUpdate                       // RK update, final stage
	tUpdateNext                   // RK update + next-stage vertex terms + zeroing (fused)
	tResInit                      // vertex terms + accumulator zeroing (standalone residual)
	tInterp                       // inter-grid interpolation over a target chunk
	tScatter                      // destination-grouped residual restriction rows
	tRepairSave                   // repair restricted states + snapshot (fused)
	tCorrDelta                    // coarse correction delta W - WSaved
	tForcingSub                   // FAS forcing P = R' - R(w')
	tApplyCorr                    // guarded application of the smoothed correction
	nTasks
)

// Instrumented phases of one time step (the engine's internal phase
// numbering; phaseMap routes them to accumulator slots).
const (
	phTimestep    = iota // stage-0 snapshot and per-vertex terms (pressure, 1/rho, sound speed)
	phConvective         // the fused edge and face sweeps, whatever parts the stage selects
	phDissipation        // shock switch (+ local time steps on stage 0) and dissipation pass 2
	phResidual           // residual combine + norm reduction
	phSmoothing
	phUpdate
	nPhases
)

var phaseNames = [nPhases]string{"timestep", "convective", "dissipation", "residual", "smoothing", "update"}

// normBlock is the fixed reduction block of residualNorm; partials are
// combined in block order so the rounded norm is worker-count independent
// and identical to the sequential solver's blocked reduction.
const normBlock = euler.NormBlock

// normSlot holds one norm-block partial padded out to a full 64-byte cache
// line. Workers write disjoint contiguous block ranges of the partial
// table; without padding the blocks at each range boundary share a line
// and the concurrent writers ping-pong it (false sharing). Padding costs
// nv/4096 * 56 bytes and keeps every writer on private lines; the
// reduction still reads slot.v in block order, so the rounded norm is
// unchanged.
type normSlot struct {
	v float64
	_ [56]byte
}

// levelEngine holds everything the worker pool needs to run the scheme on
// one mesh: the discretization, the layout, the prebuilt chunk tables,
// the per-step scratch and the analytic flop charges. A single-grid
// Solver owns one; a Multigrid owns one per level, all driven by the same
// engine (and thus the same parked workers).
//
// The step-path scratch is five blocks (euler.StateSoA), and their
// lifetimes within a stage are what lets five suffice. The solution block
// is the caller's w itself (euler.Block), advanced in place by the update
// sweeps; w0S, its stage-0 snapshot, is taken in the fused init sweep and
// lives for the step. dissS is written on the dissipation stages and read,
// frozen, by every later combine. convS lives from the convective sweep to
// the combine, laplS from dissipation pass 1 to pass 2 — both are dead once
// resS is formed, so the smoother, whose right-hand side resS must stay
// intact for every sweep, writes its sweeps alternately into laplS and
// convS; the update reads whichever holds the last one (engine.smS) and the
// stage-boundary sweep that follows re-zeroes both before their next use.
// Between steps resS is free: the standalone residual is formed in it and
// the multigrid transfers read it as the []State it is, and the coarse
// correction is staged in it on its way up.
type levelEngine struct {
	d   *euler.Disc // over the engine's mesh itself
	lay layout

	w0S, convS, dissS, resS, laplS *euler.StateSoA

	normPartial []normSlot

	// Prebuilt chunk tables: per-worker vertex ranges — what each worker
	// owns in the sweeps — and norm-block ranges.
	vertSpans  []span
	vertActive int
	normSpans  []span
	normActive int

	// Analytic flop charges of the engine's regions on this mesh, charged to
	// the phase that runs them; over one step they sum to flops.Step.
	flInit, flDt, flConv, flDiss1, flDiss2      int64
	flCombine, flSmooth, flUpdate, flUpdateNext int64
}

// newLevelEngine allocates the per-level scratch and chunk tables over m.
func newLevelEngine(m *mesh.Mesh, p euler.Params, nworkers int) (*levelEngine, error) {
	nv := m.NV()
	nb := (nv + normBlock - 1) / normBlock
	le := &levelEngine{
		w0S:         euler.NewStateSoA(nv),
		convS:       euler.NewStateSoA(nv),
		dissS:       euler.NewStateSoA(nv),
		resS:        euler.NewStateSoA(nv),
		laplS:       euler.NewStateSoA(nv),
		normPartial: make([]normSlot, nb),
	}
	if err := le.build(m, nworkers); err != nil {
		return nil, err
	}
	le.d = euler.NewDisc(m, p)
	le.chargeFlops()
	return le, nil
}

// build (re)builds the chunk tables and the layout for m, reusing the old
// arrays; it is what checks that m's element lists are over its vertices,
// so it runs before anything indexes by them. Ownership never affects
// results.
func (le *levelEngine) build(m *mesh.Mesh, nworkers int) error {
	le.vertSpans, le.vertActive = buildSpans(le.vertSpans, m.NV(), nworkers)
	le.normSpans, le.normActive = buildSpans(le.normSpans, len(le.normPartial), nworkers)
	return le.lay.fill(m, le.vertSpans[:le.vertActive])
}

// chargeFlops recomputes the analytic per-phase flop charges from the
// level's current mesh and parameters (called at build time and again by
// Rebuild after an adaptation epoch changes the mesh).
func (le *levelEngine) chargeFlops() {
	m, p := le.d.M, le.d.P
	ne, nbf := int64(m.NE()), int64(len(m.BFaces))
	nv64 := int64(m.NV())
	le.flInit = nv64 * flops.PresVert
	le.flDt = flops.TimeSteps(nv64, ne, nbf) // stage 0's sweep (its 2 flops per vertex ride the switch sweep)
	le.flConv = ne*flops.ConvEdge + nbf*flops.ConvBFace
	le.flDiss1 = ne * flops.Diss1Edge
	le.flDiss2 = ne*flops.Diss2Edge + nv64*flops.NuVert
	le.flCombine = nv64 * flops.CombineVert
	le.flSmooth = int64(p.NSmooth) * (ne*flops.SmoothEdge + nv64*flops.SmoothVert)
	le.flUpdate = nv64 * flops.UpdateVert
	le.flUpdateNext = nv64 * (flops.UpdateVert + flops.PresVert)
}

// engine is the pool-driving half: the fork/join barrier, the job
// descriptor published before every parallel region, and the
// instrumentation routing. It holds a pointer to the levelEngine of the
// level currently being operated on, so the same N parked workers serve
// every grid of a multigrid sequence.
type engine struct {
	pool   *forkjoin.Pool
	nw     int
	execFn func(int) // e.exec (or e.execTraced), bound once so fork never allocates

	// Flight-recorder hooks (trace.go); nil when tracing is disabled, so
	// the untraced hot path pays one branch.
	et *engineTrace

	// Instrumentation: engine step phases are charged to acc slots through
	// phaseMap (identity for the single-grid Solver; collapsed to one
	// per-level "steps" slot by Multigrid).
	acc      *perf.Accum
	phaseMap [nPhases]int

	lev *levelEngine // level the current region runs on

	// Job descriptor for the current parallel region, published before the
	// fork and read by the workers (the fork/join barrier orders both
	// directions).
	job      taskKind
	alpha    float64          // RK stage coefficient
	eps      float64          // residual-averaging coefficient
	parts    euler.SweepParts // tSweep: what the pass accumulates
	withDt   bool             // tNu: also fill the time steps (stage 0)
	zeroDiss bool             // tUpdateNext: also zero dissipation arrays
	w        []euler.State    // solution being advanced: the step's solution block (euler.Block(&e.w))
	forcing  []euler.State

	// Residual averaging: smS is the block holding the smoothed result so
	// far, which a sweep in flight reads (writing nextS) and the update and
	// correction sweeps consume; rhsS is the right-hand side every sweep
	// reads and none writes.
	smS, nextS, rhsS *euler.StateSoA

	// Generic per-vertex operands (tRepairSave/tCorrDelta/tForcingSub/
	// tApplyCorr) and the inter-grid transfer descriptor.
	va, vb, vdst []euler.State
	xop          *multigrid.TransferOp
	xplan        *multigrid.ScatterPlan
	xsrc, xdst   []euler.State
	xspans       []span
}

// init starts the pool and binds the dispatch function.
func (e *engine) init(nworkers int, acc *perf.Accum) {
	e.acc = acc
	e.nw = nworkers
	for i := range e.phaseMap {
		e.phaseMap[i] = i
	}
	e.pool = forkjoin.New(nworkers)
	e.execFn = e.exec
}

// fork publishes the job descriptor and runs one parallel region. With a
// tracer attached it also closes the region on every worker's track with a
// barrier-wait span (that worker's kernel end → the join).
func (e *engine) fork(j taskKind, active int) {
	e.job = j
	e.pool.Fork(e.execFn, active)
	if e.et != nil && active > 1 {
		join := time.Now()
		for w := 0; w < active; w++ {
			e.et.wtracks[w].Span(e.et.phBarrier, e.et.kend[w], join, int64(j))
		}
	}
}

// exec runs worker wk's chunk of the current parallel region. Every case
// is a table lookup plus a kernel call on solver-owned state — no
// closures, no allocation.
func (e *engine) exec(wk int) {
	lev := e.lev
	d := lev.d
	wS := euler.Block(&e.w)
	switch e.job {
	case tInit:
		sp := lev.vertSpans[wk]
		d.StepInitSoAKernel(e.w, wS, lev.w0S, sp.lo, sp.hi)
		d.StageZeroSoAKernel(lev.convS, lev.dissS, lev.laplS, true, sp.lo, sp.hi)
	case tSweep:
		sp := lev.vertSpans[wk]
		d.EdgeSweepSoAKernel(e.parts, wS, lev.convS, lev.laplS, d.Lam(), d.Sensor(), d.Den(), lev.lay.edgesOf(wk), sp.lo, sp.hi)
		d.BFaceSweepSoAKernel(e.parts, wS, lev.convS, d.Lam(), lev.lay.facesOf(wk), sp.lo, sp.hi)
	case tNu:
		sp := lev.vertSpans[wk]
		d.NuRangeKernel(d.Sensor(), d.Den(), sp.lo, sp.hi)
		if e.withDt {
			d.DtRangeKernel(d.Lam(), sp.lo, sp.hi)
		}
	case tDiss2:
		sp := lev.vertSpans[wk]
		d.Diss2SweepSoAKernel(wS, lev.laplS, lev.dissS, d.Sensor(), lev.lay.edgesOf(wk), sp.lo, sp.hi)
	case tCombine:
		sp := lev.vertSpans[wk]
		d.CombineResidualSoAKernel(lev.resS, lev.convS, lev.dissS, e.forcing, sp.lo, sp.hi)
	case tNorm:
		sp := lev.normSpans[wk]
		nv := d.M.NV()
		for b := sp.lo; b < sp.hi; b++ {
			lo, hi := b*normBlock, min((b+1)*normBlock, nv)
			lev.normPartial[b].v = euler.ResidualNormSq((*lev.resS)[lo:hi], d.M.Vol[lo:hi], hi-lo) // one block: its partial
		}
	case tSmoothGather:
		sp := lev.vertSpans[wk]
		euler.SmoothGatherSoAKernel(e.rhsS, e.smS, e.nextS, lev.lay.adjStart, lev.lay.adj, e.eps, sp.lo, sp.hi)
	case tUpdate:
		sp := lev.vertSpans[wk]
		d.UpdateFinalSoAKernel(e.w, lev.w0S, e.smS, e.alpha, sp.lo, sp.hi)
	case tUpdateNext:
		sp := lev.vertSpans[wk]
		d.UpdateNextSoAKernel(wS, lev.w0S, e.smS, e.alpha, sp.lo, sp.hi)
		d.StageZeroSoAKernel(lev.convS, lev.dissS, lev.laplS, e.zeroDiss, sp.lo, sp.hi)
	case tResInit:
		sp := lev.vertSpans[wk]
		d.ResInitSoAKernel(e.w, wS, sp.lo, sp.hi)
		d.StageZeroSoAKernel(lev.convS, lev.dissS, lev.laplS, true, sp.lo, sp.hi)
	case tInterp:
		sp := e.xspans[wk]
		e.xop.InterpRange(e.xsrc, e.xdst, sp.lo, sp.hi)
	case tScatter:
		sp := e.xspans[wk]
		e.xplan.GatherRange(e.xsrc, e.xdst, sp.lo, sp.hi)
	case tRepairSave:
		sp := lev.vertSpans[wk]
		multigrid.RepairSave(&d.P, e.va, e.vb, sp.lo, sp.hi)
	case tCorrDelta:
		sp := lev.vertSpans[wk]
		multigrid.Delta(e.vdst, e.va, e.vb, sp.lo, sp.hi)
	case tForcingSub:
		sp := lev.vertSpans[wk]
		multigrid.Subtract(e.va, e.vb, sp.lo, sp.hi)
	case tApplyCorr:
		sp := lev.vertSpans[wk]
		multigrid.ApplyCorrection(&d.P, e.va, *e.smS, sp.lo, sp.hi)
	}
}

// tick charges the wall clock since *t to an engine phase (routed through
// phaseMap) along with its analytic flop count, and restarts the clock.
func (e *engine) tick(phase int, fl int64, t *time.Time) {
	now := time.Now()
	e.acc.Add(e.phaseMap[phase], now.Sub(*t), fl)
	if e.et != nil {
		e.et.orch.Span(e.et.phasePh[phase], *t, now, 0)
	}
	*t = now
}

// step advances w by one multistage time step on lev, identically to
// euler.Disc.Step but with every loop dispatched to the worker pool, and
// advancing w in place as the step's solution block. It returns
// the first-stage residual norm and performs no heap allocations. A fresh
// step (multigrid.Levels.Step) starts stage 0 at its combine: residual, in
// its front form, left everything the combine reads — the snapshot, the
// vertex terms, the sums with the radii, the time steps and pass 2 — of
// this same w, and nothing has written lev since.
func (e *engine) step(lev *levelEngine, w, forcing []euler.State, fresh bool) float64 {
	d := lev.d
	if d.M.NV() == 0 {
		return 0
	}
	e.lev = lev
	e.w, e.forcing = w, forcing
	t := time.Now()
	stepStart := t

	// Stage-0 snapshot, per-vertex terms and the zeroing of every accumulator.
	if !fresh {
		e.fork(tInit, lev.vertActive)
		e.tick(phTimestep, lev.flInit, &t)
	}

	norm := 0.0
	nstages := len(d.P.Stages)
	for q, alpha := range d.P.Stages {
		stageStart := t
		if q > 0 || !fresh {
			// One edge and face pass for everything that reads only w (into
			// accumulators zeroed by the previous update sweep, or by tInit). A
			// time-accurate run skips the radii: a fixed dt is all they feed.
			parts, fl := euler.PartConv, lev.flConv
			if q < euler.DissipStages {
				parts |= euler.PartDiss1
				fl += lev.flDiss1
			}
			if q == 0 {
				if d.P.GlobalDt <= 0 {
					parts |= euler.PartLam
				}
				fl += lev.flDt // the nominal count, as flops.Step has it
			}
			e.parts = parts
			e.fork(tSweep, lev.vertActive)
			e.tick(phConvective, fl, &t)

			// Dissipation on the first stages, frozen afterwards. The time
			// steps ride stage 0's switch sweep, where the radii are first
			// complete.
			if q < euler.DissipStages {
				e.withDt = q == 0
				e.fork(tNu, lev.vertActive)
				e.fork(tDiss2, lev.vertActive)
				e.tick(phDissipation, lev.flDiss2, &t)
			}
		}

		e.fork(tCombine, lev.vertActive)
		if q == 0 {
			norm = e.residualNorm(lev)
		}
		e.tick(phResidual, lev.flCombine, &t)

		e.smooth(lev, lev.resS)
		e.tick(phSmoothing, lev.flSmooth, &t)

		e.alpha = alpha
		if q == nstages-1 {
			e.fork(tUpdate, lev.vertActive)
			e.tick(phUpdate, lev.flUpdate, &t)
		} else {
			// Fused stage boundary: RK update, next stage's vertex terms, and
			// next stage's accumulator zeroing in one sweep.
			e.zeroDiss = q+1 < euler.DissipStages
			e.fork(tUpdateNext, lev.vertActive)
			e.tick(phUpdate, lev.flUpdateNext, &t)
		}
		if e.et != nil {
			e.et.orch.Span(e.et.phStage, stageStart, t, int64(q))
		}
	}
	if e.et != nil {
		e.et.orch.Span(e.et.phStep, stepStart, t, 0)
	}
	e.w, e.forcing = nil, nil
	return norm
}

// residual evaluates the steady residual R(w) plus the optional FAS
// forcing into lev.resS, matching euler.Disc.Residual (followed by the
// forcing add) arithmetic-for-arithmetic; the transfer operators read it as
// the []State it is. Used by the multigrid forcing construction; performs
// no heap allocations. With front set it is the front half of a step's
// stage 0 on w, then its combine: the same R(w), formed with the
// step's snapshot, spectral radii and time steps beside it, so that a
// fresh step on w can start at its own combine.
func (e *engine) residual(lev *levelEngine, w, forcing []euler.State, front bool) {
	if lev.d.M.NV() == 0 {
		return
	}
	e.lev = lev
	e.w, e.forcing = w, forcing
	init, parts := tResInit, euler.PartConv|euler.PartDiss1
	if front {
		init = tInit
		if lev.d.P.GlobalDt <= 0 {
			parts |= euler.PartLam
		}
	}
	e.fork(init, lev.vertActive)
	e.parts, e.withDt = parts, front
	e.fork(tSweep, lev.vertActive)
	e.fork(tNu, lev.vertActive)
	e.fork(tDiss2, lev.vertActive)
	e.fork(tCombine, lev.vertActive)
	e.w, e.forcing = nil, nil
}

// residualNorm computes the RMS density residual / volume on lev. The
// reduction uses fixed-size blocks combined in block order, so the rounded
// result is independent of the worker count and equal to the sequential
// solver's euler.ResidualNormSq.
func (e *engine) residualNorm(lev *levelEngine) float64 {
	e.fork(tNorm, lev.normActive)
	sum := 0.0
	for b := range lev.normPartial {
		sum += lev.normPartial[b].v
	}
	return math.Sqrt(sum / float64(lev.d.M.NV()))
}

// smooth applies the implicit residual averaging to rhs and leaves e.smS
// pointing at the block that holds the result. Each Jacobi sweep is one
// vertex-parallel gather over the layout's adjacency — one barrier —
// reading the right-hand side from rhs, which no sweep writes, and writing
// alternately into laplS and convS (dead at this point of a stage; see
// levelEngine). The step path smooths the combined residual in resS; the
// multigrid driver smooths the prolonged correction where it lies, in its
// level's Corr. With averaging switched off the result is rhs itself.
func (e *engine) smooth(lev *levelEngine, rhs *euler.StateSoA) {
	d := lev.d
	sweeps := d.P.NSmooth
	if d.P.EpsSmooth == 0 {
		sweeps = 0
	}
	e.smS, e.rhsS = rhs, rhs
	if rhs.Len() == 0 {
		return
	}
	e.lev = lev
	e.eps = d.P.EpsSmooth
	scratch := [2]*euler.StateSoA{lev.laplS, lev.convS}
	for sweep := 0; sweep < sweeps; sweep++ {
		e.nextS = scratch[sweep&1]
		e.fork(tSmoothGather, lev.vertActive)
		e.smS = e.nextS
	}
}

// interp runs an inter-grid interpolation chunked over the target range
// table (spans/active belong to the level owning dst).
func (e *engine) interp(op *multigrid.TransferOp, src, dst []euler.State, spans []span, active int) {
	e.xop, e.xsrc, e.xdst, e.xspans = op, src, dst, spans
	e.fork(tInterp, active)
	e.xop, e.xsrc, e.xdst, e.xspans = nil, nil, nil, nil
}

// scatter runs the destination-grouped residual restriction chunked over
// the destination-row table.
func (e *engine) scatter(pl *multigrid.ScatterPlan, src, dst []euler.State, spans []span, active int) {
	e.xplan, e.xsrc, e.xdst, e.xspans = pl, src, dst, spans
	e.fork(tScatter, active)
	e.xplan, e.xsrc, e.xdst, e.xspans = nil, nil, nil, nil
}

// vertexOp runs one of the generic per-vertex regions over lev's vertices.
func (e *engine) vertexOp(j taskKind, lev *levelEngine, a, b, dst []euler.State) {
	e.lev = lev
	e.va, e.vb, e.vdst = a, b, dst
	e.fork(j, lev.vertActive)
	e.va, e.vb, e.vdst = nil, nil, nil
}

// Solver executes the five-stage scheme on a single grid with every loop
// dispatched to a persistent worker pool.
type Solver struct {
	// D is the engine's discretization; D.M is the mesh the solver was
	// built on (or last rebuilt to).
	D        *euler.Disc
	NWorkers int

	le  *levelEngine
	eng engine
}

// New builds a parallel solver over the finished mesh m. nworkers <= 0
// selects GOMAXPROCS; at one worker it is the sequential engine, every
// region inline on the caller. Step is bitwise euler.Disc.Step on m at any
// worker count. It fails on a mesh whose edge or face list is not over its
// vertices. The worker goroutines persist until Close (or until the Solver
// is garbage-collected).
func New(m *mesh.Mesh, p euler.Params, nworkers int) (*Solver, error) {
	if nworkers <= 0 {
		nworkers = runtime.GOMAXPROCS(0)
	}
	le, err := newLevelEngine(m, p, nworkers)
	if err != nil {
		return nil, fmt.Errorf("smsolver: %w", err)
	}
	s := &Solver{D: le.d, NWorkers: nworkers, le: le}
	s.eng.init(nworkers, perf.NewAccum(phaseNames[:]...))
	// The workers reference only the pool (its fn slot is cleared between
	// forks), so an abandoned Solver is collectable; shut its pool down
	// when that happens.
	runtime.AddCleanup(s, (*forkjoin.Pool).Shutdown, s.eng.pool)
	return s, nil
}

// Close parks the engine permanently: the worker goroutines exit and the
// Solver must not be stepped afterwards. Close is idempotent and optional —
// the garbage collector releases the workers of an unreferenced Solver —
// but deterministic teardown is kinder to tests and long-lived processes.
func (s *Solver) Close() {
	s.eng.pool.Shutdown()
}

// SetTrace attaches a flight-recorder tracer: every pooled worker gets a
// track of kernel and barrier-wait spans, and the orchestrator a "phases"
// track of step phases and RK stages. Call before the first Step; a nil
// tracer leaves tracing disabled. Traced steps stay allocation-free.
func (s *Solver) SetTrace(tr *trace.Tracer) { s.eng.attachTrace(tr, "") }

// Stats returns the accumulated per-phase wall-clock timings with their
// analytic flop charges (internal/flops), from which per-phase and total
// MFlops rates follow.
func (s *Solver) Stats() perf.Stats { return s.eng.acc.Stats() }

// Step advances w by one multistage time step, identically to
// euler.Disc.Step but parallel. It returns the first-stage residual norm
// and performs no heap allocations.
func (s *Solver) Step(w []euler.State, forcing []euler.State) float64 {
	return s.eng.step(s.le, w, forcing, false)
}

// Residual evaluates the steady residual R(w), without forcing, into a
// block the solver owns and returns it; the block is valid until the next
// Step, Residual or Rebuild. It is bitwise euler.Disc.Residual on D.M and
// performs no heap allocations.
func (s *Solver) Residual(w []euler.State) []euler.State {
	s.eng.residual(s.le, w, nil, false)
	return *s.le.resS
}

// InitUniform fills w with the freestream state.
func (s *Solver) InitUniform(w []euler.State) { s.D.InitUniform(w) }
