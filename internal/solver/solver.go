// Package solver provides the steady-state engines used by the
// command-line tools, the daemon and the examples: the single grid and the
// FAS multigrid cycles, each a stepper the convergence loop
// (internal/runloop) drives. A run is described as every run is, by
// runloop.Options (Options is that type under this package's name): Run
// hands each checkpoint record, stamped with the engine's CFL, to its
// OnCheckpoint, and Restore resumes from such a record. The engine's CFL
// is fixed when it is built, so Restore rejects a record written at
// another.
//
// Open is the one way in. A Config picks one of two grid shapes — the
// single grid (Gamma 0, one mesh) or the multigrid (Gamma >= 1, as many
// levels as meshes) — and a worker count, which is a speed setting only:
// workers change speed, never the answer.
//
// Every engine is the worker-pool engine of internal/smsolver running the
// kernels of euler/kernels_soa.go owner-computes, in each mesh's own edge
// and face order, so at any worker count the single grid is bitwise
// euler.Disc.Step and the multigrid bitwise multigrid.Solver on the same
// meshes. The reference operator of euler/ops.go and
// multigrid.Solver keep two roles, neither of them a product path: the
// oracle the tests compare the engines against, and the benchmark's serial
// references, which time euler.Disc.Step and multigrid.Solver.Cycle
// directly (a faster serial reference would lower speedup_vs_serial at
// unchanged engine speed, so re-pointing them is a change to the benchmark
// itself). The tables, the examples and the adaptive driver, its residual
// indicator included, run the engines built here.
package solver

import (
	"errors"
	"fmt"
	"sync"

	"eul3d/internal/euler"
	"eul3d/internal/mesh"
	"eul3d/internal/meshio"
	"eul3d/internal/perf"
	"eul3d/internal/runloop"
	"eul3d/internal/smsolver"
	"eul3d/internal/trace"
)

// Options is the loop's: a steady run is described as every run is. The
// name stays for callers that already spell it.
type Options = runloop.Options

// Result summarizes a run: the loop's own.
type Result = runloop.Result

// stepper abstracts one solver cycle.
type stepper interface {
	cycle() float64
	solution() []euler.State
	stats() perf.Stats
	initUniform()
	setTrace(tr *trace.Tracer)
}

type smStepper struct {
	sm *smsolver.Solver
	w  []euler.State
}

func (s *smStepper) cycle() float64            { return s.sm.Step(s.w, nil) }
func (s *smStepper) solution() []euler.State   { return s.w }
func (s *smStepper) stats() perf.Stats         { return s.sm.Stats() }
func (s *smStepper) initUniform()              { s.sm.InitUniform(s.w) }
func (s *smStepper) setTrace(tr *trace.Tracer) { s.sm.SetTrace(tr) }

// Config chooses the engine. The zero Config is the single grid on one
// worker.
type Config struct {
	Workers int // worker count, 0 = 1; changes speed, never the answer
	Gamma   int // 0: single grid; >= 1: multigrid cycle index, 1 = V, 2 = W
}

// Open builds the steady solver c names over meshes (finest first): the
// single grid on exactly one mesh, or the multigrid with as many levels as
// meshes. It rejects a negative worker count or cycle index and a single
// grid given more than one mesh. The result is bitwise the same at every
// worker count. A multigrid engine is exposed as Steady.MG. Call Close when
// done to park the pool.
func Open(meshes []*mesh.Mesh, p euler.Params, c Config) (*Steady, error) {
	switch {
	case len(meshes) == 0:
		return nil, errors.New("solver: no meshes")
	case c.Workers < 0:
		return nil, fmt.Errorf("solver: %d workers (0 selects one)", c.Workers)
	case c.Gamma < 0:
		return nil, fmt.Errorf("solver: cycle index %d (0 selects the single grid)", c.Gamma)
	case c.Gamma == 0 && len(meshes) > 1:
		return nil, fmt.Errorf("solver: the single grid runs on one mesh, not %d", len(meshes))
	}
	workers := max(c.Workers, 1)
	if c.Gamma == 0 {
		sm, err := smsolver.New(meshes[0], p, workers)
		if err != nil {
			return nil, err
		}
		return steadySM(sm, p), nil
	}
	mg, err := smsolver.NewMultigrid(meshes, p, c.Gamma, workers)
	if err != nil {
		return nil, err
	}
	return &Steady{s: &smgStepper{mg: mg}, MG: mg, cfl: p.CFL, close: mg.Close}, nil
}

// NewSingleGrid builds the sequential single-grid steady solver over the
// finished mesh m: the pooled engine at one worker (smsolver.New), bitwise
// euler.Disc.Step on m, as Open builds it from the zero Config. It reports the six
// step phases in Stats and accepts a tracer. It panics on a mesh whose edge
// or face list is not over its vertices, which no finished mesh has; Open
// reports that as an error.
func NewSingleGrid(m *mesh.Mesh, p euler.Params) *Steady {
	sm, err := smsolver.New(m, p, 1)
	if err != nil {
		panic(err)
	}
	return steadySM(sm, p)
}

func steadySM(sm *smsolver.Solver, p euler.Params) *Steady {
	w := make([]euler.State, sm.D.M.NV())
	sm.InitUniform(w)
	return &Steady{s: &smStepper{sm: sm, w: w}, cfl: p.CFL, close: sm.Close}
}

type smgStepper struct{ mg *smsolver.Multigrid }

func (s *smgStepper) cycle() float64            { return s.mg.Cycle() }
func (s *smgStepper) solution() []euler.State   { return s.mg.Fine().W }
func (s *smgStepper) stats() perf.Stats         { return s.mg.Stats() }
func (s *smgStepper) initUniform()              { s.mg.InitUniform() }
func (s *smgStepper) setTrace(tr *trace.Tracer) { s.mg.SetTrace(tr) }

// Steady is a steady-state solver ready to Run.
type Steady struct {
	s  stepper
	MG *smsolver.Multigrid // non-nil for the multigrid

	cfl       float64   // recorded in checkpoints
	prior     []float64 // residual history carried over from a checkpoint: Run picks up at cycle len(prior)
	close     func()    // releases stepper resources (worker pool); may be nil
	closeOnce sync.Once
}

// Stats returns the per-phase wall-clock and analytic-Mflops breakdown
// accumulated over every cycle run so far.
func (st *Steady) Stats() perf.Stats { return st.s.stats() }

// SetTrace attaches a flight-recorder tracer to the underlying engine:
// every engine runs on the worker pool, so every engine traces. Call before the
// first Run; a nil tracer leaves tracing disabled.
func (st *Steady) SetTrace(tr *trace.Tracer) { st.s.setTrace(tr) }

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
// takes w over as the solution on m. The engine recomputes its layout into
// the arrays it owns (the sequential one's stays m itself plus the
// smoother's adjacency) and keeps its worker pool. On error the engine must
// only be Closed.
func (st *Steady) Rebuild(m *mesh.Mesh, p euler.Params, w []euler.State) error {
	// Only the single-grid stepper can move: the multigrid ones are tied to
	// their mesh sequence's transfer operators.
	s, ok := st.s.(*smStepper)
	if !ok {
		return errors.New("solver: a multigrid engine cannot be rebuilt onto another mesh")
	}
	if len(w) != m.NV() {
		return fmt.Errorf("solver: rebuild with %d states for %d vertices", len(w), m.NV())
	}
	st.cfl = p.CFL
	s.w = w
	return s.sm.Rebuild(m, p)
}

// Cycle and Solution make a Steady the runloop.Stepper it is: one cycle of
// the underlying engine (which cannot fail), and its live fine-grid state.
func (st *Steady) Cycle(int) (float64, error) { return st.s.cycle(), nil }
func (st *Steady) Solution() []euler.State    { return st.s.solution() }

// Run iterates until convergence or the cycle limit and returns the
// result. After a Restore, iteration picks up at the checkpointed cycle
// and History includes the checkpointed prefix, so MaxCycles always means
// the total cycle count. Every record handed to opt.OnCheckpoint carries
// the engine's CFL. The returned FineSolution aliases the solver's state.
func (st *Steady) Run(opt runloop.Options) (*Result, error) {
	opt.Meta.CFL = st.cfl
	res, err := runloop.Run(st, append([]float64(nil), st.prior...), opt)
	if err != nil {
		return nil, fmt.Errorf("solver: %w", err)
	}
	return res, nil
}
