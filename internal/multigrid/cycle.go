package multigrid

import (
	"fmt"
	"time"

	"eul3d/internal/euler"
	"eul3d/internal/flops"
	"eul3d/internal/mesh"
	"eul3d/internal/perf"
)

// Level holds the solver state for one grid of the multigrid sequence.
type Level struct {
	Disc    *euler.Disc
	W       []euler.State // current solution
	WSaved  []euler.State // transferred solution w' (for corrections)
	Forcing []euler.State // FAS forcing function P (nil on the finest grid)
	Res     []euler.State // residual scratch
	Corr    []euler.State // prolonged-correction scratch (own mesh size)
	WS      *euler.StepWorkspace

	// Restrict locates this level's vertices in the next-finer mesh
	// (used to interpolate flow variables down the hierarchy).
	// Prolong locates the next-finer mesh's vertices in this level
	// (used to interpolate corrections up, and transposed to restrict
	// residuals). Both are nil on the finest level.
	Restrict *TransferOp
	Prolong  *TransferOp
}

// Instrumented phases of a multigrid cycle.
const (
	phSteps = iota
	phResiduals
	phTransfers
	phCorrections
	numPhases
)

// Solver drives FAS multigrid cycles over a sequence of non-nested grids,
// finest first.
type Solver struct {
	Levels []*Level
	Gamma  int // cycle index: 1 = V-cycle, 2 = W-cycle

	// Instrumentation: wall clock per cycle phase plus the analytic flop
	// counts of internal/flops, precomputed per level in New.
	acc        *perf.Accum
	stepFl     []int64 // one time step on level l
	residFl    []int64 // one residual evaluation on level l
	restrictFl []int64 // down-transfer around the l/l+1 pair
	prolongFl  []int64 // up-transfer around the l/l+1 pair
	corrFl     []int64 // correction smoothing + update on level l
}

// New builds a multigrid solver over meshes (finest first) with the given
// scheme parameters and cycle index gamma (1 for V, 2 for W). The transfer
// operators for every level pair are computed here — the preprocessing
// phase of Section 2.4.
func New(meshes []*mesh.Mesh, p euler.Params, gamma int) (*Solver, error) {
	if len(meshes) == 0 {
		return nil, fmt.Errorf("multigrid: no meshes")
	}
	if gamma < 1 {
		return nil, fmt.Errorf("multigrid: cycle index must be >= 1, got %d", gamma)
	}
	s := &Solver{Gamma: gamma}
	for l, m := range meshes {
		nv := m.NV()
		lev := &Level{
			Disc:   euler.NewDisc(m, p),
			W:      make([]euler.State, nv),
			WSaved: make([]euler.State, nv),
			Res:    make([]euler.State, nv),
			Corr:   make([]euler.State, nv),
			WS:     euler.NewStepWorkspace(nv),
		}
		if l > 0 {
			lev.Forcing = make([]euler.State, nv)
			var err error
			lev.Restrict, err = BuildTransfer(m, meshes[l-1])
			if err != nil {
				return nil, fmt.Errorf("multigrid: restrict %d->%d: %w", l-1, l, err)
			}
			lev.Prolong, err = BuildTransfer(meshes[l-1], m)
			if err != nil {
				return nil, fmt.Errorf("multigrid: prolong %d->%d: %w", l, l-1, err)
			}
		}
		s.Levels = append(s.Levels, lev)
	}
	s.acc = perf.NewAccum("steps", "residuals", "transfers", "corrections")
	n := len(s.Levels)
	s.stepFl = make([]int64, n)
	s.residFl = make([]int64, n)
	s.restrictFl = make([]int64, n)
	s.prolongFl = make([]int64, n)
	s.corrFl = make([]int64, n)
	for l, lev := range s.Levels {
		m := lev.Disc.M
		nv, ne, nbf := int64(m.NV()), int64(m.NE()), int64(len(m.BFaces))
		s.stepFl[l] = flops.Step(nv, ne, nbf, len(p.Stages), euler.DissipStages, p.NSmooth)
		s.residFl[l] = flops.Residual(nv, ne, nbf)
		s.corrFl[l] = int64(p.NSmooth)*(ne*flops.SmoothEdge+nv*flops.SmoothVert) + nv*flops.UpdateVert
		if l > 0 {
			nvFine := int64(meshes[l-1].NV())
			s.restrictFl[l-1] = (nv + nvFine) * flops.XferVert // variables down + residual scatter
			s.prolongFl[l-1] = nvFine * flops.XferVert         // correction up
		}
	}
	s.InitUniform()
	return s, nil
}

// Stats snapshots the per-phase wall clock and analytic flop counts
// accumulated over all cycles so far.
func (s *Solver) Stats() perf.Stats { return s.acc.Stats() }

// tick charges the time since *t to phase ph with fl analytic flops and
// advances *t.
func (s *Solver) tick(ph int, fl int64, t *time.Time) {
	now := time.Now()
	s.acc.Add(ph, now.Sub(*t), fl)
	*t = now
}

// InitUniform sets every level to the freestream state.
func (s *Solver) InitUniform() {
	for _, lev := range s.Levels {
		lev.Disc.InitUniform(lev.W)
	}
}

// Fine returns the finest level.
func (s *Solver) Fine() *Level { return s.Levels[0] }

// Cycle performs one multigrid cycle starting on the finest grid and
// returns the fine-grid residual norm measured at the first RK stage.
func (s *Solver) Cycle() float64 {
	return s.cycle(0)
}

// cycle is the recursive FAS driver. On each level it performs one
// time-step, transfers variables and residuals to the next coarser level,
// recurses gamma times, and interpolates the coarse correction back.
func (s *Solver) cycle(l int) float64 {
	lev := s.Levels[l]
	t := time.Now()
	norm := lev.Disc.Step(lev.W, lev.Forcing, lev.WS)
	s.tick(phSteps, s.stepFl[l], &t)

	if l == len(s.Levels)-1 {
		return norm
	}
	next := s.Levels[l+1]

	// Residual of the current (post-step) solution, including forcing:
	// this is what the coarse grid must reproduce.
	lev.Disc.Residual(lev.W, lev.Forcing, lev.Res)
	s.tick(phResiduals, s.residFl[l], &t)

	// Transfer flow variables (interpolation, then the positivity repair of
	// the restricted states) and residuals (conservative transpose scatter)
	// to the coarse grid.
	next.Restrict.Interp(lev.W, next.W)
	RepairSave(&next.Disc.P, next.W, next.WSaved, 0, len(next.W))
	next.Prolong.ScatterTranspose(lev.Res, next.Forcing) // next.Forcing := R'
	s.tick(phTransfers, s.restrictFl[l], &t)

	// Forcing P = R' - R(w').
	next.Disc.Residual(next.W, nil, next.Res)
	Subtract(next.Forcing, next.Res, 0, len(next.Forcing))
	s.tick(phResiduals, s.residFl[l+1], &t)

	// Coarse-grid visits: gamma = 1 gives a V-cycle, 2 a W-cycle.
	visits := s.Gamma
	if l+1 == len(s.Levels)-1 {
		visits = 1 // revisiting the coarsest grid twice in a row is idle
	}
	for v := 0; v < visits; v++ {
		s.cycle(l + 1) // recursion charges its own phases
	}
	t = time.Now()

	// Prolong the coarse-grid correction back to this level.
	Delta(next.Res, next.W, next.WSaved, 0, len(next.W))
	next.Prolong.Interp(next.Res, lev.Corr)
	s.tick(phTransfers, s.prolongFl[l], &t)
	// Smooth the prolonged correction: interpolation across non-nested
	// grids injects high-frequency noise that would otherwise undo the
	// fine-grid smoothing (the implicit averaging operator doubles as the
	// correction smoother).
	lev.Disc.SmoothResiduals(lev.Corr)
	ApplyCorrection(&lev.Disc.P, lev.W, lev.Corr, 0, len(lev.W))
	s.tick(phCorrections, s.corrFl[l], &t)
	return norm
}

// WorkUnits returns the per-cycle computational work of this solver in
// units of fine-grid time-steps, counting each level's steps per cycle
// weighted by its edge count — the measure behind the paper's "a W-cycle
// requires approximately 90% more CPU time than a single grid cycle, the
// V-cycle 75%".
func (s *Solver) WorkUnits() float64 {
	visits := s.visitCounts()
	fine := float64(s.Levels[0].Disc.M.NE())
	wu := 0.0
	for l, lev := range s.Levels {
		wu += float64(visits[l]) * float64(lev.Disc.M.NE()) / fine
	}
	return wu
}

// visitCounts returns how many time-steps each level performs in one cycle.
func (s *Solver) visitCounts() []int {
	n := len(s.Levels)
	counts := make([]int, n)
	var walk func(l, mult int)
	walk = func(l, mult int) {
		counts[l] += mult
		if l == n-1 {
			return
		}
		v := s.Gamma
		if l+1 == n-1 {
			v = 1
		}
		walk(l+1, mult*v)
	}
	walk(0, 1)
	return counts
}
