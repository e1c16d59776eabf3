package multigrid

import (
	"fmt"
	"time"

	"eul3d/internal/euler"
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
	// counts of the level ledger.
	acc  *perf.Accum
	cost Ledger
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
	s.cost = NewLedger(meshes, p)
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
	norm, _ := Cycle(serial{s}, 0, len(s.Levels), s.Gamma) // serial hooks never fail
	return norm
}

// serial is the Solver's execution of the cycle's pieces: inline, on whole
// arrays, each phase charged to its Stats slot. It is one pointer, so Cycle
// holds it without allocating. Its hooks never fail.
type serial struct{ *Solver }

func (s serial) Step(l int) (float64, error) {
	lev, t := s.Levels[l], time.Now()
	norm := lev.Disc.Step(lev.W, lev.Forcing, lev.WS)
	s.tick(phSteps, s.cost[l].Step, &t)
	return norm, nil
}

func (s serial) Restrict(l int) error {
	lev, next, t := s.Levels[l], s.Levels[l+1], time.Now()

	// Residual of the current (post-step) solution, including forcing:
	// this is what the coarse grid must reproduce.
	lev.Disc.Residual(lev.W, lev.Forcing, lev.Res)
	s.tick(phResiduals, s.cost[l].Residual, &t)

	// Transfer flow variables (interpolation, then the positivity repair of
	// the restricted states) and residuals (conservative transpose scatter)
	// to the coarse grid.
	next.Restrict.Interp(lev.W, next.W)
	RepairSave(&next.Disc.P, next.W, next.WSaved, 0, len(next.W))
	next.Prolong.ScatterTranspose(lev.Res, next.Forcing) // next.Forcing := R'
	s.tick(phTransfers, s.cost[l].Restrict, &t)

	// Forcing P = R' - R(w').
	next.Disc.Residual(next.W, nil, next.Res)
	Subtract(next.Forcing, next.Res, 0, len(next.Forcing))
	s.tick(phResiduals, s.cost[l+1].Residual, &t)
	return nil
}

func (s serial) Correct(l int) error {
	lev, next, t := s.Levels[l], s.Levels[l+1], time.Now()

	// Prolong the coarse-grid correction back to this level.
	Delta(next.Res, next.W, next.WSaved, 0, len(next.W))
	next.Prolong.Interp(next.Res, lev.Corr)
	s.tick(phTransfers, s.cost[l].Prolong, &t)
	// Smooth the prolonged correction: interpolation across non-nested
	// grids injects high-frequency noise that would otherwise undo the
	// fine-grid smoothing (the implicit averaging operator doubles as the
	// correction smoother).
	lev.Disc.SmoothResiduals(lev.Corr)
	ApplyCorrection(&lev.Disc.P, lev.W, lev.Corr, 0, len(lev.W))
	s.tick(phCorrections, s.cost[l].Correct, &t)
	return nil
}
