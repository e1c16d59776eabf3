package smsolver

import (
	"fmt"
	"runtime"
	"time"

	"eul3d/internal/color"
	"eul3d/internal/euler"
	"eul3d/internal/flops"
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

// Colorings carries optional precomputed edge and boundary-face colorings
// for one level of NewMultigridColored.
type Colorings struct {
	Edges *color.Coloring
	Faces *color.Coloring
}

// Multigrid drives FAS multigrid cycles with every level's RK stages,
// residual evaluations, dissipation sweeps and inter-grid transfers
// executed on one persistent worker pool: the same N parked workers serve
// all grids through per-level layouts and chunk tables. Results are bitwise
// identical across worker counts (fixed layout order, disjoint writes per
// chunk, block-ordered norm reduction), and a steady-state Cycle performs
// zero heap allocations.
type Multigrid struct {
	Gamma    int // cycle index: 1 = V-cycle, 2 = W-cycle
	NWorkers int

	levels []*MGLevel
	eng    engine

	// Instrumentation: one accumulator slot quadruple per level
	// ("L<l> steps/residuals/transfers/corrections"); stepMap[l] collapses
	// the engine's six step phases onto level l's steps slot.
	stepMap    [][nPhases]int
	slotPh     []trace.PhaseID // trace phase per accumulator slot (traced only)
	phLevel    trace.PhaseID   // level-entry instant (arg = level)
	stepFl     []int64         // one time step on level l
	residFl    []int64         // one residual evaluation on level l
	restrictFl []int64         // down-transfer around the l/l+1 pair
	prolongFl  []int64         // up-transfer around the l/l+1 pair
	corrFl     []int64         // correction smoothing + update on level l
	cycleFl    int64           // analytic flops of one full cycle
}

// NewMultigrid builds a pooled multigrid solver over meshes (finest
// first) with cycle index gamma (1 for V, 2 for W) and nworkers workers
// (<= 0 selects GOMAXPROCS). The transfer operators and their
// destination-grouped scatter plans are computed here, as are every
// level's layout and chunk tables.
func NewMultigrid(meshes []*mesh.Mesh, p euler.Params, gamma, nworkers int) (*Multigrid, error) {
	return NewMultigridColored(meshes, p, gamma, nworkers, nil)
}

// NewMultigridColored is NewMultigrid with caller-provided per-level
// per-element colorings (nil entries select the block colorings) — used with
// color-canonical mesh sequences for bitwise conformance against the
// serial multigrid.
func NewMultigridColored(meshes []*mesh.Mesh, p euler.Params, gamma, nworkers int, cols []Colorings) (*Multigrid, error) {
	if len(meshes) == 0 {
		return nil, fmt.Errorf("smsolver: no meshes")
	}
	if gamma < 1 {
		return nil, fmt.Errorf("smsolver: cycle index must be >= 1, got %d", gamma)
	}
	if cols != nil && len(cols) != len(meshes) {
		return nil, fmt.Errorf("smsolver: %d colorings for %d meshes", len(cols), len(meshes))
	}
	if nworkers <= 0 {
		nworkers = runtime.GOMAXPROCS(0)
	}
	mg := &Multigrid{Gamma: gamma, NWorkers: nworkers}
	for l, m := range meshes {
		var ec, fc *color.Coloring
		if cols != nil {
			ec, fc = cols[l].Edges, cols[l].Faces
		}
		lay, err := layoutFor(m, ec, fc)
		if err != nil {
			return nil, fmt.Errorf("smsolver: level %d: %w", l, err)
		}
		le := newLevelEngine(lay, p, nworkers)
		nv := m.NV()
		lev := &MGLevel{
			W:      make([]euler.State, nv),
			WSaved: make([]euler.State, nv),
			Corr:   make([]euler.State, nv),
			eng:    le,
		}
		if l > 0 {
			lev.Forcing = make([]euler.State, nv)
			lev.restrict, err = multigrid.BuildTransfer(m, meshes[l-1])
			if err != nil {
				return nil, fmt.Errorf("smsolver: restrict %d->%d: %w", l-1, l, err)
			}
			lev.prolong, err = multigrid.BuildTransfer(meshes[l-1], m)
			if err != nil {
				return nil, fmt.Errorf("smsolver: prolong %d->%d: %w", l, l-1, err)
			}
			lev.scatter = lev.prolong.Plan(nv)
		}
		mg.levels = append(mg.levels, lev)
	}

	// Per-level accumulator slots and analytic flop charges, mirroring the
	// serial multigrid's but kept per level for the -stats breakdown.
	n := len(mg.levels)
	names := make([]string, 0, 4*n)
	mg.stepMap = make([][nPhases]int, n)
	mg.stepFl = make([]int64, n)
	mg.residFl = make([]int64, n)
	mg.restrictFl = make([]int64, n)
	mg.prolongFl = make([]int64, n)
	mg.corrFl = make([]int64, n)
	for l, lev := range mg.levels {
		names = append(names,
			fmt.Sprintf("L%d steps", l), fmt.Sprintf("L%d residuals", l),
			fmt.Sprintf("L%d transfers", l), fmt.Sprintf("L%d corrections", l))
		for ph := range mg.stepMap[l] {
			mg.stepMap[l][ph] = 4 * l
		}
		m := lev.eng.d.M
		nv, ne, nbf := int64(m.NV()), int64(m.NE()), int64(len(m.BFaces))
		mg.stepFl[l] = flops.Step(nv, ne, nbf, len(p.Stages), euler.DissipStages, p.NSmooth)
		mg.residFl[l] = flops.Residual(nv, ne, nbf)
		mg.corrFl[l] = int64(p.NSmooth)*(ne*flops.SmoothEdge+nv*flops.SmoothVert) + nv*flops.UpdateVert
		if l > 0 {
			nvFine := int64(meshes[l-1].NV())
			mg.restrictFl[l-1] = (nv + nvFine) * flops.XferVert // variables down + residual scatter
			mg.prolongFl[l-1] = nvFine * flops.XferVert         // correction up
		}
	}
	visits := mg.visitCounts()
	for l := range mg.levels {
		mg.cycleFl += int64(visits[l]) * mg.stepFl[l]
		if l < n-1 {
			mg.cycleFl += int64(visits[l]) *
				(mg.residFl[l] + mg.residFl[l+1] + mg.restrictFl[l] + mg.prolongFl[l] + mg.corrFl[l])
		}
	}

	mg.eng.init(nworkers, perf.NewAccum(names...))
	runtime.AddCleanup(mg, func(p *pool) { p.shutdown() }, mg.eng.pool)
	mg.InitUniform()
	return mg, nil
}

// Close parks the engine permanently; idempotent and optional (the
// garbage collector releases the workers of an unreferenced Multigrid).
func (mg *Multigrid) Close() {
	if mg.eng.pool != nil {
		mg.eng.pool.shutdown()
		mg.eng.pool = nil
	}
}

// SetTrace attaches a flight-recorder tracer to the pooled engine: worker
// tracks carry kernel and barrier spans across every level (the kernel
// span's argument is the color group, or the part set on the fused sweeps;
// the level shows in the "phases" track), and the orchestrator track
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

// CycleFlops returns the analytic flop count of one full cycle (the sum
// of every level visit's step, residual, transfer and correction work).
func (mg *Multigrid) CycleFlops() int64 { return mg.cycleFl }

// WorkUnits returns the per-cycle computational work in units of
// fine-grid time-steps, weighted by edge count — same measure as the
// serial multigrid's.
func (mg *Multigrid) WorkUnits() float64 {
	visits := mg.visitCounts()
	fine := float64(mg.levels[0].eng.d.M.NE())
	wu := 0.0
	for l, lev := range mg.levels {
		wu += float64(visits[l]) * float64(lev.eng.d.M.NE()) / fine
	}
	return wu
}

// visitCounts returns how many time-steps each level performs in one cycle.
func (mg *Multigrid) visitCounts() []int {
	n := len(mg.levels)
	counts := make([]int, n)
	var walk func(l, mult int)
	walk = func(l, mult int) {
		counts[l] += mult
		if l == n-1 {
			return
		}
		v := mg.Gamma
		if l+1 == n-1 {
			v = 1
		}
		walk(l+1, mult*v)
	}
	walk(0, 1)
	return counts
}

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
	return mg.cycle(0)
}

// cycle is the recursive FAS driver, the exact arithmetic of
// multigrid.Solver.cycle with every piece dispatched to the worker pool:
// one pooled time-step, pooled residual + forcing, chunked restriction
// (interp + destination-grouped scatter), gamma recursive visits, and the
// chunked prolongation with pooled correction smoothing.
func (mg *Multigrid) cycle(l int) float64 {
	lev := mg.levels[l]
	e := &mg.eng
	if e.et != nil {
		e.et.orch.Instant(mg.phLevel, time.Now(), int64(l))
	}
	e.phaseMap = mg.stepMap[l]
	norm := e.step(lev.eng, lev.W, lev.Forcing)

	if l == len(mg.levels)-1 {
		return norm
	}
	next := mg.levels[l+1]
	t := time.Now()

	// Residual of the current (post-step) solution, including forcing:
	// this is what the coarse grid must reproduce.
	e.residual(lev.eng, lev.W, lev.Forcing)
	mg.tick(4*l+1, mg.residFl[l], &t)

	// Transfer flow variables (interpolation) and residuals (conservative
	// destination-grouped scatter) to the coarse grid, repairing the
	// restricted states (and snapshotting them into WSaved) before the
	// coarse grid evaluates sound speeds on them.
	e.interp(next.restrict, lev.W, next.W, next.eng.vertSpans, next.eng.vertActive)
	e.vertexOp(tRepairSave, next.eng, next.W, next.WSaved, nil)
	e.scatter(next.scatter, *lev.eng.resS, next.Forcing, next.eng.vertSpans, next.eng.vertActive) // next.Forcing := R'
	mg.tick(4*l+2, mg.restrictFl[l], &t)

	// Forcing P = R' - R(w').
	e.residual(next.eng, next.W, nil)
	e.vertexOp(tForcingSub, next.eng, next.Forcing, *next.eng.resS, nil)
	mg.tick(4*(l+1)+1, mg.residFl[l+1], &t)

	// Coarse-grid visits: gamma = 1 gives a V-cycle, 2 a W-cycle.
	visits := mg.Gamma
	if l+1 == len(mg.levels)-1 {
		visits = 1 // revisiting the coarsest grid twice in a row is idle
	}
	for v := 0; v < visits; v++ {
		mg.cycle(l + 1) // recursion charges its own phases
	}
	t = time.Now()

	// Prolong the coarse-grid correction back to this level.
	e.vertexOp(tCorrDelta, next.eng, next.W, next.WSaved, *next.eng.resS)
	e.interp(next.prolong, *next.eng.resS, lev.Corr, lev.eng.vertSpans, lev.eng.vertActive)
	mg.tick(4*l+2, mg.prolongFl[l], &t)

	// Smooth the prolonged correction (the implicit averaging operator
	// doubles as the correction smoother) where it lies, the sweeps in this
	// level's step scratch, free between steps, and apply the result under
	// the positivity guard.
	e.smooth(lev.eng, euler.Block(&lev.Corr))
	e.vertexOp(tApplyCorr, lev.eng, lev.W, nil, nil)
	mg.tick(4*l+3, mg.corrFl[l], &t)
	return norm
}
