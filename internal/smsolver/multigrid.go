package smsolver

import (
	"fmt"
	"runtime"
	"time"

	"eul3d/internal/euler"
	"eul3d/internal/forkjoin"
	"eul3d/internal/mesh"
	"eul3d/internal/multigrid"
	"eul3d/internal/perf"
	"eul3d/internal/trace"
)

// MGLevel is one grid of the pooled multigrid sequence: the FAS state
// arrays plus the transfer tables linking it to the next-finer level.
type MGLevel struct {
	W       []euler.State // current solution
	WSaved  []euler.State // transferred solution w' (for corrections)
	Forcing []euler.State // FAS forcing function P (nil on the finest grid)
	Corr    []euler.State // prolonged-correction scratch (own mesh size)
	D       *euler.Disc   // the level's discretization, as Solver.D: D.M is its mesh

	eng *levelEngine

	// restrict locates this level's vertices in the next-finer mesh,
	// prolong the finer mesh's vertices in this one, exactly as in the
	// serial multigrid; scatter is prolong's transpose regrouped by
	// destination vertex (multigrid.ScatterPlan) so the conservative
	// residual restriction parallelizes with disjoint writes per chunk.
	// All nil on the finest level.
	restrict *multigrid.TransferOp
	prolong  *multigrid.TransferOp
	scatter  *multigrid.ScatterPlan
}

// Multigrid drives FAS multigrid cycles with every level's RK stages,
// residual evaluations, dissipation sweeps and inter-grid transfers
// executed on one persistent worker pool: the same N parked workers serve
// all grids through per-level layouts and chunk tables. Every piece is the
// serial multigrid's arithmetic in its order — the owner-computes sweeps,
// the gather smoother, the transfers, the destination-grouped scatter
// (whose rows keep the source order) and the block-ordered norm — so its
// cycles, and FMGInit, are bitwise multigrid.Solver's on the same meshes at
// any worker count. A steady-state Cycle performs zero heap allocations.
type Multigrid struct {
	Gamma    int // cycle index: 1 = V-cycle, 2 = W-cycle
	NWorkers int

	levels []*MGLevel
	eng    engine

	// Instrumentation: one accumulator slot quadruple per level
	// ("L<l> steps/residuals/transfers/corrections"), charged from the level
	// ledger; stepMap[l] collapses the engine's six step phases onto level
	// l's steps slot.
	stepMap [][nPhases]int
	slotPh  []trace.PhaseID // trace phase per accumulator slot (traced only)
	phLevel trace.PhaseID   // level-entry instant (arg = level)
	cost    multigrid.Ledger
}

// NewMultigrid builds a pooled multigrid solver over meshes (finest
// first) with cycle index gamma (1 for V, 2 for W) and nworkers workers
// (<= 0 selects GOMAXPROCS; one is the sequential multigrid). The transfer
// operators (multigrid.Transfers) and their destination-grouped scatter
// plans are computed here, as are every level's layout and chunk tables.
func NewMultigrid(meshes []*mesh.Mesh, p euler.Params, gamma, nworkers int) (*Multigrid, error) {
	if nworkers <= 0 {
		nworkers = runtime.GOMAXPROCS(0)
	}
	if len(meshes) == 0 {
		return nil, fmt.Errorf("smsolver: no meshes")
	}
	if gamma < 1 {
		return nil, fmt.Errorf("smsolver: cycle index must be >= 1, got %d", gamma)
	}

	// The transfer operators and the level engines are functions of the
	// meshes, and none reads another: the operators are built on their own
	// goroutines while this one lays the levels out and sets up their
	// engines.
	var restrict, prolong []*multigrid.TransferOp
	transfers := make(chan error, 1)
	go func() {
		var err error
		restrict, prolong, err = multigrid.Transfers(meshes)
		transfers <- err
	}()
	engs := make([]*levelEngine, len(meshes))
	var err error
	for l, m := range meshes {
		if engs[l], err = newLevelEngine(m, p, nworkers); err != nil {
			err = fmt.Errorf("smsolver: level %d: %w", l, err)
			break
		}
	}
	if terr := <-transfers; err == nil && terr != nil {
		err = fmt.Errorf("smsolver: %w", terr)
	}
	if err != nil {
		return nil, err
	}

	mg := &Multigrid{Gamma: gamma, NWorkers: nworkers}
	for l, m := range meshes {
		le, nv := engs[l], m.NV()
		lev := &MGLevel{
			W:        make([]euler.State, nv),
			WSaved:   make([]euler.State, nv),
			Corr:     make([]euler.State, nv),
			D:        le.d,
			eng:      le,
			restrict: restrict[l],
			prolong:  prolong[l],
		}
		if l > 0 {
			lev.Forcing = make([]euler.State, nv)
			lev.scatter = lev.prolong.Plan(nv)
		}
		mg.levels = append(mg.levels, lev)
	}

	// Per-level accumulator slots, the serial multigrid's four phases kept
	// per level for the -stats breakdown.
	names := make([]string, 0, 4*len(mg.levels))
	mg.stepMap = make([][nPhases]int, len(mg.levels))
	for l := range mg.levels {
		names = append(names,
			fmt.Sprintf("L%d steps", l), fmt.Sprintf("L%d residuals", l),
			fmt.Sprintf("L%d transfers", l), fmt.Sprintf("L%d corrections", l))
		for ph := range mg.stepMap[l] {
			mg.stepMap[l][ph] = 4 * l
		}
	}
	mg.cost = multigrid.NewLedger(meshes, p)

	mg.eng.init(nworkers, perf.NewAccum(names...))
	runtime.AddCleanup(mg, (*forkjoin.Pool).Shutdown, mg.eng.pool)
	mg.InitUniform()
	return mg, nil
}

// Close parks the engine permanently; idempotent and optional (the
// garbage collector releases the workers of an unreferenced Multigrid).
func (mg *Multigrid) Close() {
	mg.eng.pool.Shutdown()
}

// SetTrace attaches a flight-recorder tracer to the pooled engine: worker
// tracks carry kernel and barrier spans across every level (the kernel
// span's argument is the part set on the fused sweeps; the level shows in
// the "phases" track), and the orchestrator track
// carries the per-level accumulator phases ("L<l> steps/residuals/
// transfers/corrections") plus a level-entry instant per cycle visit. Call
// before the first Cycle.
func (mg *Multigrid) SetTrace(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	mg.eng.attachTrace(tr, "")
	names := mg.eng.acc.Names()
	mg.slotPh = make([]trace.PhaseID, len(names))
	for i, n := range names {
		mg.slotPh[i] = tr.Phase(n)
	}
	mg.phLevel = tr.Phase("enter-level")
}

// Fine returns the finest level.
func (mg *Multigrid) Fine() *MGLevel { return mg.levels[0] }

// NumLevels returns the number of grids in the sequence.
func (mg *Multigrid) NumLevels() int { return len(mg.levels) }

// InitUniform sets every level to the freestream state.
func (mg *Multigrid) InitUniform() {
	for _, lev := range mg.levels {
		lev.eng.d.InitUniform(lev.W)
	}
}

// Stats snapshots the per-level per-phase wall clock and analytic flop
// counts accumulated over all cycles so far.
func (mg *Multigrid) Stats() perf.Stats { return mg.eng.acc.Stats() }

// FMGInit performs full-multigrid initialization (multigrid.FMG) with
// cyclesPerLevel cycles per coarse level, on the pool. After FMGInit, Cycle
// continues on the finest grid as usual.
func (mg *Multigrid) FMGInit(cyclesPerLevel int) {
	clear(mg.levels[len(mg.levels)-1].Forcing)
	multigrid.FMG(pooled{mg}, len(mg.levels), mg.Gamma, cyclesPerLevel) // pooled hooks never fail
}

// CycleFlops returns the analytic flop count of one full cycle (the sum
// of every level visit's step, residual, transfer and correction work).
func (mg *Multigrid) CycleFlops() int64 { return mg.cost.CycleFlops(mg.Gamma) }

// WorkUnits returns the ledger's edge-weighted count of a cycle's time
// steps, in fine-grid steps (multigrid.Ledger.WorkUnits): a step count,
// not a time.
func (mg *Multigrid) WorkUnits() float64 { return mg.cost.WorkUnits(mg.Gamma) }

// tick charges the time since *t to accumulator slot with fl analytic
// flops and advances *t.
func (mg *Multigrid) tick(slot int, fl int64, t *time.Time) {
	now := time.Now()
	mg.eng.acc.Add(slot, now.Sub(*t), fl)
	if mg.eng.et != nil {
		mg.eng.et.orch.Span(mg.slotPh[slot], *t, now, 0)
	}
	*t = now
}

// Cycle performs one multigrid cycle starting on the finest grid and
// returns the fine-grid residual norm measured at the first RK stage. At
// steady state it performs zero heap allocations.
func (mg *Multigrid) Cycle() float64 {
	norm, _ := multigrid.Cycle(pooled{mg}, 0, len(mg.levels), mg.Gamma) // pooled hooks never fail
	return norm
}

// pooled is the Multigrid's execution of the cycle's pieces — the exact
// arithmetic of the serial multigrid's, every piece dispatched to the
// worker pool: one pooled time-step, pooled residual + forcing, chunked
// restriction (interp + destination-grouped scatter), the chunked
// prolongation with pooled correction smoothing, and FMG's lift. It is one
// pointer, so multigrid.Cycle holds it without allocating. Its hooks never
// fail.
type pooled struct{ *Multigrid }

func (mg pooled) Step(l int) (float64, error) {
	lev, e := mg.levels[l], &mg.eng
	if e.et != nil {
		e.et.orch.Instant(mg.phLevel, time.Now(), int64(l))
	}
	e.phaseMap = mg.stepMap[l]
	return e.step(lev.eng, lev.W, lev.Forcing), nil
}

func (mg pooled) Restrict(l int) error {
	lev, next, e := mg.levels[l], mg.levels[l+1], &mg.eng
	t := time.Now()

	// Residual of the current (post-step) solution, including forcing:
	// this is what the coarse grid must reproduce.
	e.residual(lev.eng, lev.W, lev.Forcing)
	mg.tick(4*l+1, mg.cost[l].Residual, &t)

	// Transfer flow variables (interpolation) and residuals (conservative
	// destination-grouped scatter) to the coarse grid, repairing the
	// restricted states (and snapshotting them into WSaved) before the
	// coarse grid evaluates sound speeds on them.
	e.interp(next.restrict, lev.W, next.W, next.eng.vertSpans, next.eng.vertActive)
	e.vertexOp(tRepairSave, next.eng, next.W, next.WSaved, nil)
	e.scatter(next.scatter, *lev.eng.resS, next.Forcing, next.eng.vertSpans, next.eng.vertActive) // next.Forcing := R'
	mg.tick(4*l+2, mg.cost[l].Restrict, &t)

	// Forcing P = R' - R(w').
	e.residual(next.eng, next.W, nil)
	e.vertexOp(tForcingSub, next.eng, next.Forcing, *next.eng.resS, nil)
	mg.tick(4*(l+1)+1, mg.cost[l+1].Residual, &t)
	return nil
}

func (mg pooled) Correct(l int) error {
	lev, next, e := mg.levels[l], mg.levels[l+1], &mg.eng
	t := time.Now()

	// Prolong the coarse-grid correction back to this level.
	e.vertexOp(tCorrDelta, next.eng, next.W, next.WSaved, *next.eng.resS)
	e.interp(next.prolong, *next.eng.resS, lev.Corr, lev.eng.vertSpans, lev.eng.vertActive)
	mg.tick(4*l+2, mg.cost[l].Prolong, &t)

	// Smooth the prolonged correction (the implicit averaging operator
	// doubles as the correction smoother) where it lies, the sweeps in this
	// level's step scratch, free between steps, and apply the result under
	// the positivity guard.
	e.smooth(lev.eng, euler.Block(&lev.Corr))
	e.vertexOp(tApplyCorr, lev.eng, lev.W, nil, nil)
	mg.tick(4*l+3, mg.cost[l].Correct, &t)
	return nil
}

func (mg pooled) Lift(l int) error {
	lev, from, e := mg.levels[l-1], mg.levels[l], &mg.eng

	// Prolong the developed solution (not a correction), smooth the
	// interpolation noise where it lies, and repair the result into W (the
	// repaired states also land in the smoothing scratch, which is dead).
	e.interp(from.prolong, from.W, lev.Corr, lev.eng.vertSpans, lev.eng.vertActive)
	e.smooth(lev.eng, euler.Block(&lev.Corr))
	e.vertexOp(tRepairSave, lev.eng, *e.smS, lev.W, nil)
	clear(lev.Forcing)
	return nil
}
