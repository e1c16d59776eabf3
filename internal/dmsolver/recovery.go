package dmsolver

import (
	"errors"
	"fmt"
	"io"
	"math"

	"eul3d/internal/euler"
	"eul3d/internal/meshio"
	"eul3d/internal/runloop"
	"eul3d/internal/simnet"
)

// This file is the recovery orchestrator: a stepper around the distributed
// cycle that gives the solver the resilience machinery of a real runtime
// under the one convergence loop (internal/runloop). It keeps the last
// snapshot and answers a failed cycle with runloop.Rewind. Three mechanisms
// compose:
//
//   - periodic checkpoints (in memory, optionally mirrored to disk as
//     atomic CRC-trailered files) snapshot the fine-grid solution, cycle
//     count, residual history and CFL — the only state that persists across
//     cycles (coarse multigrid levels are rebuilt every cycle from the fine
//     grid);
//   - on a whole-node crash (simnet.ErrNodeDown bubbling out of a cycle)
//     the fabric is repaired, every partition is restored from the last
//     checkpoint, and the run resumes at the checkpointed cycle. Because
//     the solver is deterministic, the replayed cycles — and therefore the
//     final solution and residual history — are bitwise identical to a
//     fault-free run;
//   - a divergence watchdog catches NaN/Inf or blown-up residuals, halves
//     the CFL and retries from the last checkpoint, bounded by
//     MaxCFLBackoffs.
//
// Transient message faults (drops, corruption, duplication, delays,
// reordering) never reach this layer: the PARTI executors heal them with
// the bounded retry/re-request protocol in parti.recvHealing.

// RunOptions controls a fault-tolerant distributed steady-state run.
type RunOptions struct {
	MaxCycles int     // hard iteration limit (total, including resumed cycles)
	Tolerance float64 // stop when residual/initial falls below this (0 = run all cycles)
	LogEvery  int     // progress line period (0 = silent)
	Log       io.Writer

	// Concurrent runs every cycle as CycleConcurrent (a worker per
	// simulated processor) instead of Cycle.
	Concurrent bool

	// CheckpointEvery > 0 snapshots the run every that many cycles (an
	// initial cycle-0 checkpoint is always taken so a crash before the
	// first interval remains recoverable). CheckpointPath, when set,
	// additionally mirrors every snapshot to disk atomically.
	CheckpointEvery int
	CheckpointPath  string
	Mach, AlphaDeg  float64 // metadata recorded in disk checkpoints

	// Resume warm-starts the run from a previously saved checkpoint.
	Resume *meshio.Checkpoint

	// IncidentPath, when set and a tracer is attached (SetTrace), dumps
	// the flight recorder there (Chrome trace-event JSON) at every
	// incident — node crash, CFL backoff, or unrecoverable divergence —
	// so the rings hold the events leading up to it. Later incidents
	// overwrite earlier dumps: the file always describes the most recent.
	IncidentPath string

	// MaxRecoveries bounds crash recoveries (default 3 when zero; negative
	// disables recovery entirely).
	MaxRecoveries int
	// MaxCFLBackoffs bounds divergence-watchdog retries (default 2 when
	// zero; negative disables the watchdog).
	MaxCFLBackoffs int
	// BlowupFactor: a residual above BlowupFactor times the initial
	// residual counts as divergence (default 1e4 when zero).
	BlowupFactor float64
}

// RunResult summarizes a fault-tolerant distributed run: the loop's result
// (FineSolution is a gathered copy) and what recovering cost.
type RunResult struct {
	runloop.Result
	Recoveries  int // crash recoveries performed
	CFLBackoffs int // divergence-watchdog retries performed
}

// SetFineSolution overwrites the fine-grid solution from a global state
// array, filling owned ranges and ghost slots without communication — the
// restore half of checkpoint/restart.
func (s *Solver) SetFineSolution(sol []euler.State) error {
	lev := s.Levels[0]
	if len(sol) != lev.M.NV() {
		return fmt.Errorf("dmsolver: solution has %d states for %d vertices", len(sol), lev.M.NV())
	}
	for p := 0; p < s.NProc; p++ {
		for li, g := range lev.Dist.L2G[p] {
			lev.W[p][li] = sol[g]
		}
		base := lev.Dist.Count(p)
		for si, g := range lev.GS.Ghosts(p) {
			lev.W[p][base+si] = sol[g]
		}
	}
	return nil
}

// recovering is the stepper Run hands the loop: the distributed cycle, the
// checkpoint it can be put back to, and the budgets that bound how often.
type recovering struct {
	s   *Solver
	opt RunOptions // budgets and blow-up factor defaulted

	// snap is the rewind point: the last periodic checkpoint, or the run's
	// start. Its history aliases the loop's, whose first snap.Cycle entries
	// no rewind ever rewrites.
	snap                 *meshio.Checkpoint
	initial              float64 // the history's first residual: what the watchdog measures a blow-up against
	recoveries, backoffs int
}

func (r *recovering) Solution() []euler.State { return r.s.GatherSolution() }

// checkpoint is the loop's cadence hook: a new rewind point, mirrored to
// disk when the run has a path.
func (r *recovering) checkpoint(history []float64) error {
	meta := runloop.Meta{Mach: r.opt.Mach, AlphaDeg: r.opt.AlphaDeg, CFL: r.s.P.CFL}
	r.snap = meta.Checkpoint(history, r.s.GatherSolution())
	r.s.markIncident("checkpoint", r.snap.Cycle)
	if r.opt.CheckpointPath == "" {
		return nil
	}
	return meshio.SaveCheckpoint(r.opt.CheckpointPath, r.snap)
}

// rewind puts the solver back to the rewind point at the given CFL: every
// partition's owned and ghost values are rebuilt from the global solution,
// and the transport layer is reset so the replay starts from a clean
// bulk-synchronous slate. It returns what tells the loop to replay.
func (r *recovering) rewind(cfl float64) error {
	r.s.Fabric.Repair()
	if err := r.s.SetFineSolution(r.snap.Sol); err != nil {
		panic("dmsolver: snapshot does not match solver: " + err.Error()) // impossible: snapshots come from this solver
	}
	r.s.P.CFL = cfl
	return runloop.Rewind{To: r.snap.Cycle}
}

// Cycle runs cycle c. A node crash inside the recovery budget, or a
// residual the watchdog rejects inside the backoff budget, rewinds — CFL
// restored or halved — and makes the loop replay from there; outside the
// budgets either ends the run.
func (r *recovering) Cycle(c int) (float64, error) {
	s, opt := r.s, &r.opt
	s.Fabric.BeginCycle(c)
	cycle := s.Cycle
	if opt.Concurrent {
		cycle = s.CycleConcurrent
	}
	norm, err := cycle()
	if err != nil {
		if !errors.Is(err, simnet.ErrNodeDown) || r.recoveries >= opt.MaxRecoveries {
			return 0, fmt.Errorf("cycle %d: %w", c, err)
		}
		r.recoveries++
		s.markIncident("node-crash", c)
		if opt.Log != nil {
			fmt.Fprintf(opt.Log, "cycle %5d  node crash (%v); restoring checkpoint at cycle %d (recovery %d/%d)\n",
				c, err, r.snap.Cycle, r.recoveries, opt.MaxRecoveries)
		}
		rw := r.rewind(r.snap.CFL)
		s.markIncident("recovery", r.snap.Cycle)
		s.dumpIncident(opt)
		return 0, rw
	}
	if c == 0 {
		r.initial = norm
	}
	// The watchdog predicate: NaN/Inf, or a later residual more than
	// BlowupFactor times the initial one.
	blownUp := c > 0 && r.initial > 0 && norm > opt.BlowupFactor*r.initial
	if !blownUp && !math.IsNaN(norm) && !math.IsInf(norm, 0) {
		return norm, nil
	}
	s.markIncident("cfl-backoff", c)
	if r.backoffs >= opt.MaxCFLBackoffs {
		s.dumpIncident(opt)
		return 0, fmt.Errorf("cycle %d: residual %g diverged (initial %g)", c, norm, r.initial)
	}
	r.backoffs++
	newCFL := s.P.CFL * 0.5
	if opt.Log != nil {
		fmt.Fprintf(opt.Log, "cycle %5d  residual %.3e diverging; CFL %.3g -> %.3g, retrying from cycle %d (backoff %d/%d)\n",
			c, norm, s.P.CFL, newCFL, r.snap.Cycle, r.backoffs, opt.MaxCFLBackoffs)
	}
	rw := r.rewind(newCFL) // keep the reduced CFL, not the checkpointed one
	s.dumpIncident(opt)
	return 0, rw
}

// Run drives the distributed solve to convergence or the cycle limit,
// surviving seeded interconnect faults and node crashes when checkpointing
// is enabled. Under any fault schedule the solver heals from, the final
// solution and residual history are bitwise identical to the fault-free
// run.
func (s *Solver) Run(opt RunOptions) (*RunResult, error) {
	r := &recovering{s: s, opt: opt}
	if opt.MaxRecoveries == 0 {
		r.opt.MaxRecoveries = 3
	}
	if opt.MaxCFLBackoffs == 0 {
		r.opt.MaxCFLBackoffs = 2
	}
	if opt.BlowupFactor == 0 {
		r.opt.BlowupFactor = 1e4
	}
	var prior []float64
	if ck := opt.Resume; ck != nil {
		if len(ck.History) != ck.Cycle {
			return nil, fmt.Errorf("dmsolver: checkpoint at cycle %d has %d history entries", ck.Cycle, len(ck.History))
		}
		if err := s.SetFineSolution(ck.Sol); err != nil {
			return nil, err
		}
		if ck.CFL > 0 {
			s.P.CFL = ck.CFL
		}
		prior = append(prior, ck.History...)
		if ck.Cycle > 0 {
			r.initial = prior[0]
		}
	}
	// Always hold a rewind point, even before the first periodic interval.
	r.snap = runloop.Meta{CFL: s.P.CFL}.Checkpoint(prior, s.GatherSolution())

	res, err := runloop.Run(r, prior, runloop.Options{
		MaxCycles:       opt.MaxCycles,
		Tolerance:       opt.Tolerance,
		LogEvery:        opt.LogEvery,
		Log:             opt.Log,
		CheckpointEvery: opt.CheckpointEvery,
		Checkpoint:      r.checkpoint,
	})
	if err != nil {
		return nil, fmt.Errorf("dmsolver: %w", err)
	}
	return &RunResult{Result: *res, Recoveries: r.recoveries, CFLBackoffs: r.backoffs}, nil
}

// dumpIncident writes the flight recorder to opt.IncidentPath, capturing
// the ring contents — the events leading up to the incident that was just
// marked. Dump failures are reported on the log but never fail the run:
// post-mortem capture must not take the solve down with it.
func (s *Solver) dumpIncident(opt *RunOptions) {
	if s.st == nil || opt.IncidentPath == "" {
		return
	}
	if err := s.st.tr.WriteChromeFile(opt.IncidentPath); err != nil {
		if opt.Log != nil {
			fmt.Fprintf(opt.Log, "incident trace dump: %v\n", err)
		}
		return
	}
	if opt.Log != nil {
		fmt.Fprintf(opt.Log, "incident trace dumped to %s\n", opt.IncidentPath)
	}
}
