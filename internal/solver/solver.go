// Package solver provides the steady-state engines used by the
// command-line tools, the daemon and the examples: the single-grid scheme
// and the multigrid cycles, sequential and pooled, each a stepper the
// convergence loop (internal/runloop) drives.
package solver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"eul3d/internal/euler"
	"eul3d/internal/flops"
	"eul3d/internal/mesh"
	"eul3d/internal/meshio"
	"eul3d/internal/multigrid"
	"eul3d/internal/perf"
	"eul3d/internal/runloop"
	"eul3d/internal/smsolver"
	"eul3d/internal/trace"
)

// Options controls a steady-state run.
type Options struct {
	MaxCycles int     // hard iteration limit (total, including resumed cycles)
	Tolerance float64 // stop when residual/initial falls below this (0 = run all cycles)
	LogEvery  int     // progress line period (0 = silent)
	Log       io.Writer

	// Checkpointing: every CheckpointEvery cycles an atomic, CRC-trailered
	// snapshot of the solution, cycle count and residual history is written
	// to CheckpointPath (both fields must be set to enable it). Mach and
	// AlphaDeg are recorded as metadata. A run restored from such a
	// snapshot (Restore) reproduces the uninterrupted residual history
	// bitwise.
	CheckpointEvery int
	CheckpointPath  string
	Mach            float64
	AlphaDeg        float64

	// Context, when non-nil, is checked before every cycle: once it is
	// cancelled (or its deadline passes) Run stops and returns the partial
	// Result with Cancelled set and a nil error. A nil Context reproduces
	// the uncancellable behaviour exactly.
	Context context.Context

	// Progress, when non-nil, is invoked after every completed cycle with
	// the cycle index and its residual norm. It runs on the solver
	// goroutine, so long callbacks slow the solve.
	Progress func(cycle int, norm float64)
}

// Result summarizes a run: the loop's own.
type Result = runloop.Result

// stepper abstracts one solver cycle.
type stepper interface {
	cycle() float64
	solution() []euler.State
	stats() perf.Stats
	initUniform()
}

// rebuilder is implemented by the single-grid steppers, whose engines can
// be retargeted in place at another mesh (the multigrid ones are tied to
// their mesh sequence's transfer operators).
type rebuilder interface {
	rebuild(m *mesh.Mesh, p euler.Params, w []euler.State) error
}

// traceable is implemented by the steppers whose engines can attach a
// flight-recorder tracer (the pooled shared-memory ones).
type traceable interface {
	setTrace(tr *trace.Tracer)
}

func (s *smStepper) setTrace(tr *trace.Tracer)  { s.sm.SetTrace(tr) }
func (s *smgStepper) setTrace(tr *trace.Tracer) { s.mg.SetTrace(tr) }

type singleStepper struct {
	d   *euler.Disc
	w   []euler.State
	ws  *euler.StepWorkspace
	acc *perf.Accum
	fl  int64 // analytic flops of one time step
}

func (s *singleStepper) cycle() float64 {
	t := time.Now()
	norm := s.d.Step(s.w, nil, s.ws)
	s.acc.Add(0, time.Since(t), s.fl)
	return norm
}
func (s *singleStepper) solution() []euler.State { return s.w }
func (s *singleStepper) stats() perf.Stats       { return s.acc.Stats() }
func (s *singleStepper) initUniform()            { s.d.InitUniform(s.w) }

func (s *singleStepper) rebuild(m *mesh.Mesh, p euler.Params, w []euler.State) error {
	s.d.Retarget(m, p)
	s.ws.Resize(m.NV())
	s.w, s.fl = w, stepFlops(m, p)
	return nil
}

func stepFlops(m *mesh.Mesh, p euler.Params) int64 {
	return flops.Step(int64(m.NV()), int64(m.NE()), int64(len(m.BFaces)),
		len(p.Stages), euler.DissipStages, p.NSmooth)
}

type mgStepper struct{ mg *multigrid.Solver }

func (s *mgStepper) cycle() float64          { return s.mg.Cycle() }
func (s *mgStepper) solution() []euler.State { return s.mg.Fine().W }
func (s *mgStepper) stats() perf.Stats       { return s.mg.Stats() }
func (s *mgStepper) initUniform()            { s.mg.InitUniform() }

type smStepper struct {
	sm *smsolver.Solver
	w  []euler.State
}

func (s *smStepper) cycle() float64          { return s.sm.Step(s.w, nil) }
func (s *smStepper) solution() []euler.State { return s.w }
func (s *smStepper) stats() perf.Stats       { return s.sm.Stats() }
func (s *smStepper) initUniform()            { s.sm.InitUniform(s.w) }

func (s *smStepper) rebuild(m *mesh.Mesh, p euler.Params, w []euler.State) error {
	s.w = w
	return s.sm.Rebuild(m, p)
}

// NewSingleGrid builds a single-grid steady solver over m.
func NewSingleGrid(m *mesh.Mesh, p euler.Params) *Steady {
	d := euler.NewDisc(m, p)
	w := make([]euler.State, m.NV())
	d.InitUniform(w)
	return &Steady{
		s:   &singleStepper{d: d, w: w, ws: euler.NewStepWorkspace(m.NV()), acc: perf.NewAccum("step"), fl: stepFlops(m, p)},
		cfl: p.CFL,
	}
}

// NewSharedMemory builds a single-grid steady solver over m driven by the
// persistent worker-pool engine with nworkers workers (0 = GOMAXPROCS).
// Results are bitwise identical to NewSingleGrid up to roundoff-free
// reassociation of the colored accumulation order; per-phase timings are
// available from Stats. Call Close when done to park the pool.
func NewSharedMemory(m *mesh.Mesh, p euler.Params, nworkers int) (*Steady, error) {
	sm, err := smsolver.New(m, p, nworkers)
	if err != nil {
		return nil, err
	}
	w := make([]euler.State, m.NV())
	sm.InitUniform(w)
	return &Steady{s: &smStepper{sm: sm, w: w}, cfl: p.CFL, close: sm.Close}, nil
}

type smgStepper struct{ mg *smsolver.Multigrid }

func (s *smgStepper) cycle() float64          { return s.mg.Cycle() }
func (s *smgStepper) solution() []euler.State { return s.mg.Fine().W }
func (s *smgStepper) stats() perf.Stats       { return s.mg.Stats() }
func (s *smgStepper) initUniform()            { s.mg.InitUniform() }

// NewSharedMemoryMultigrid builds a multigrid steady solver over the mesh
// sequence (finest first) with cycle index gamma, driven by the persistent
// worker-pool engine with nworkers workers (0 = GOMAXPROCS). Cycles are
// bitwise reproducible for any worker count; per-level timings are
// available from Stats. Call Close when done to park the pool.
func NewSharedMemoryMultigrid(meshes []*mesh.Mesh, p euler.Params, gamma, nworkers int) (*Steady, error) {
	mg, err := smsolver.NewMultigrid(meshes, p, gamma, nworkers)
	if err != nil {
		return nil, err
	}
	return &Steady{s: &smgStepper{mg: mg}, cfl: p.CFL, close: mg.Close}, nil
}

// NewMultigrid builds a multigrid steady solver over the mesh sequence
// (finest first) with cycle index gamma.
func NewMultigrid(meshes []*mesh.Mesh, p euler.Params, gamma int) (*Steady, error) {
	mg, err := multigrid.New(meshes, p, gamma)
	if err != nil {
		return nil, err
	}
	return &Steady{s: &mgStepper{mg: mg}, MG: mg, cfl: p.CFL}, nil
}

// Steady is a steady-state solver ready to Run.
type Steady struct {
	s  stepper
	MG *multigrid.Solver // non-nil for multigrid runs

	cfl       float64   // recorded in checkpoints
	prior     []float64 // residual history carried over from a checkpoint: Run picks up at cycle len(prior)
	close     func()    // releases stepper resources (worker pool); may be nil
	closeOnce sync.Once
}

// Stats returns the per-phase wall-clock and analytic-Mflops breakdown
// accumulated over every cycle run so far.
func (st *Steady) Stats() perf.Stats { return st.s.stats() }

// SetTrace attaches a flight-recorder tracer to the underlying engine and
// reports whether the stepper supports tracing (the pooled shared-memory
// engines do; the sequential steppers are single timelines the per-phase
// Stats already describe). Call before the first Run.
func (st *Steady) SetTrace(tr *trace.Tracer) bool {
	if t, ok := st.s.(traceable); ok && tr != nil {
		t.setTrace(tr)
		return true
	}
	return false
}

// Close releases any resources held by the underlying stepper (the
// shared-memory worker pool). It is idempotent — including under
// concurrent callers — and safe on solvers that hold no resources and
// after a Run that returned an error.
func (st *Steady) Close() {
	st.closeOnce.Do(func() {
		if st.close != nil {
			st.close()
			st.close = nil
		}
	})
}

// Reset returns the solver to its initial freestream state and clears any
// restored checkpoint, so a long-lived engine can serve a fresh run. The
// accumulated perf stats are deliberately kept (they describe the engine,
// not one run).
func (st *Steady) Reset() {
	st.s.initUniform()
	st.prior = nil
}

// Restore warm-starts the solver from a checkpoint so that a subsequent
// Run continues exactly where the checkpointed run stopped: the solution is
// restored, cycle numbering resumes at ck.Cycle, and ck.History is
// prepended to the new run's history. Because the solver is deterministic,
// the resumed history and solution are bitwise identical to an
// uninterrupted run — at the CFL the checkpoint was written at. The engine's
// CFL is fixed when it is built, so a checkpoint that records another (a
// distributed run whose watchdog backed off) is rejected rather than
// continued at the CFL it diverged at.
func (st *Steady) Restore(ck *meshio.Checkpoint) error {
	if len(ck.History) != ck.Cycle {
		return fmt.Errorf("solver: checkpoint at cycle %d has %d history entries", ck.Cycle, len(ck.History))
	}
	if ck.CFL > 0 && ck.CFL != st.cfl {
		return fmt.Errorf("solver: checkpoint was written at CFL %g, this engine runs at %g", ck.CFL, st.cfl)
	}
	if err := st.SetInitial(ck.Sol); err != nil {
		return err
	}
	st.prior = append([]float64(nil), ck.History...)
	return nil
}

// SetInitial warm-starts the solver from a previously computed fine-grid
// solution (e.g. loaded with meshio.LoadSolution). The slice length must
// match the fine mesh.
func (st *Steady) SetInitial(w []euler.State) error {
	dst := st.s.solution()
	if len(w) != len(dst) {
		return fmt.Errorf("solver: initial solution has %d states for %d vertices", len(w), len(dst))
	}
	copy(dst, w)
	return nil
}

// Rebuild retargets a single-grid engine, in place, at mesh m with
// parameters p — the adaptive driver's move between refinement epochs — and
// takes w over as the solution on m. The pooled engine recomputes its
// layout into the arrays it owns and keeps its worker pool; the sequential
// one regrows its scratch. On error the engine must only be Closed.
func (st *Steady) Rebuild(m *mesh.Mesh, p euler.Params, w []euler.State) error {
	r, ok := st.s.(rebuilder)
	if !ok {
		return errors.New("solver: a multigrid engine cannot be rebuilt onto another mesh")
	}
	if len(w) != m.NV() {
		return fmt.Errorf("solver: rebuild with %d states for %d vertices", len(w), m.NV())
	}
	st.cfl = p.CFL
	return r.rebuild(m, p, w)
}

// Cycle and Solution make a Steady the runloop.Stepper it is: one cycle of
// the underlying engine (which cannot fail), and its live fine-grid state.
func (st *Steady) Cycle(int) (float64, error) { return st.s.cycle(), nil }
func (st *Steady) Solution() []euler.State    { return st.s.solution() }

// Run iterates until convergence or the cycle limit and returns the
// result. After a Restore, iteration picks up at the checkpointed cycle
// and History includes the checkpointed prefix, so MaxCycles always means
// the total cycle count. The returned FineSolution aliases the solver's
// state.
func (st *Steady) Run(opt Options) (*Result, error) {
	lo := runloop.Options{
		MaxCycles: opt.MaxCycles,
		Tolerance: opt.Tolerance,
		LogEvery:  opt.LogEvery,
		Log:       opt.Log,
		Context:   opt.Context,
		Progress:  opt.Progress,
	}
	if opt.CheckpointEvery > 0 && opt.CheckpointPath != "" {
		// Written before the next cycle mutates what the record aliases.
		meta := runloop.Meta{Mach: opt.Mach, AlphaDeg: opt.AlphaDeg, CFL: st.cfl}
		lo.CheckpointEvery = opt.CheckpointEvery
		lo.Checkpoint = func(history []float64) error {
			return meshio.SaveCheckpoint(opt.CheckpointPath, meta.Checkpoint(history, st.s.solution()))
		}
	}
	res, err := runloop.Run(st, append([]float64(nil), st.prior...), lo)
	if err != nil {
		return nil, fmt.Errorf("solver: %w", err)
	}
	return res, nil
}
