package dmsolver

import (
	"errors"
	"fmt"
	"io"
	"math"

	"eul3d/internal/euler"
	"eul3d/internal/meshio"
	"eul3d/internal/simnet"
	"eul3d/internal/trace"
)

// This file is the recovery orchestrator: a loop around the distributed
// cycle that gives the solver the resilience machinery of a real runtime.
// Three mechanisms compose:
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

	// Concurrent runs every cycle under the MIMD driver (one goroutine
	// per simulated processor) instead of the sequential one.
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

// RunResult summarizes a fault-tolerant distributed run.
type RunResult struct {
	Cycles       int
	History      []float64
	InitialNorm  float64
	FinalNorm    float64
	Converged    bool
	Ordersof10   float64
	Recoveries   int // crash recoveries performed
	CFLBackoffs  int // divergence-watchdog retries performed
	FineSolution []euler.State
}

// snapshot is the in-memory checkpoint the orchestrator rewinds to.
type snapshot struct {
	cycle   int
	cfl     float64
	history []float64
	sol     []euler.State
}

func (s *Solver) takeSnapshot(cycle int, history []float64) snapshot {
	return snapshot{
		cycle:   cycle,
		cfl:     s.P.CFL,
		history: append([]float64(nil), history...),
		sol:     s.GatherSolution(),
	}
}

// restoreSnapshot rewinds the solver to a snapshot: every partition's
// owned and ghost values are rebuilt from the global solution, and the
// transport layer is reset so the replay starts from a clean
// bulk-synchronous slate.
func (s *Solver) restoreSnapshot(sn snapshot) {
	s.Fabric.Repair()
	if err := s.SetFineSolution(sn.sol); err != nil {
		panic("dmsolver: snapshot does not match solver: " + err.Error()) // impossible: snapshots come from this solver
	}
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

// Run drives the distributed solve to convergence or the cycle limit,
// surviving seeded interconnect faults and node crashes when checkpointing
// is enabled. Under any fault schedule the solver heals from, the final
// solution and residual history are bitwise identical to the fault-free
// run.
func (s *Solver) Run(opt RunOptions) (*RunResult, error) {
	if opt.MaxCycles <= 0 {
		return nil, fmt.Errorf("dmsolver: MaxCycles must be positive")
	}
	maxRecoveries := opt.MaxRecoveries
	if maxRecoveries == 0 {
		maxRecoveries = 3
	}
	maxBackoffs := opt.MaxCFLBackoffs
	if maxBackoffs == 0 {
		maxBackoffs = 2
	}
	blowup := opt.BlowupFactor
	if blowup == 0 {
		blowup = 1e4
	}

	res := &RunResult{}
	var history []float64
	c := 0
	if opt.Resume != nil {
		if len(opt.Resume.History) != opt.Resume.Cycle {
			return nil, fmt.Errorf("dmsolver: checkpoint at cycle %d has %d history entries", opt.Resume.Cycle, len(opt.Resume.History))
		}
		if err := s.SetFineSolution(opt.Resume.Sol); err != nil {
			return nil, err
		}
		if opt.Resume.CFL > 0 {
			s.P.CFL = opt.Resume.CFL
		}
		c = opt.Resume.Cycle
		history = append(history, opt.Resume.History...)
	}
	// Always hold a rewind point, even before the first periodic interval.
	ckpt := s.takeSnapshot(c, history)

	cycleOnce := func() (float64, error) {
		if opt.Concurrent {
			return s.CycleConcurrent()
		}
		return s.Cycle()
	}

	for c < opt.MaxCycles {
		s.Fabric.BeginCycle(c)
		norm, err := cycleOnce()
		if err != nil {
			if errors.Is(err, simnet.ErrNodeDown) && maxRecoveries > 0 && res.Recoveries < maxRecoveries {
				res.Recoveries++
				s.markIncident(func(st *solverTrace) trace.PhaseID { return st.phCrash }, int64(c))
				if opt.Log != nil {
					fmt.Fprintf(opt.Log, "cycle %5d  node crash (%v); restoring checkpoint at cycle %d (recovery %d/%d)\n",
						c, err, ckpt.cycle, res.Recoveries, maxRecoveries)
				}
				s.restoreSnapshot(ckpt)
				s.markIncident(func(st *solverTrace) trace.PhaseID { return st.phRecov }, int64(ckpt.cycle))
				s.dumpIncident(&opt)
				s.P.CFL = ckpt.cfl
				history = append(history[:0], ckpt.history...)
				c = ckpt.cycle
				continue
			}
			return nil, fmt.Errorf("dmsolver: cycle %d: %w", c, err)
		}
		if diverged(norm, history, blowup) {
			s.markIncident(func(st *solverTrace) trace.PhaseID { return st.phBack }, int64(c))
			if maxBackoffs > 0 && res.CFLBackoffs < maxBackoffs {
				res.CFLBackoffs++
				newCFL := s.P.CFL * 0.5
				if opt.Log != nil {
					fmt.Fprintf(opt.Log, "cycle %5d  residual %.3e diverging; CFL %.3g -> %.3g, retrying from cycle %d (backoff %d/%d)\n",
						c, norm, s.P.CFL, newCFL, ckpt.cycle, res.CFLBackoffs, maxBackoffs)
				}
				s.restoreSnapshot(ckpt)
				s.P.CFL = newCFL // keep the reduced CFL, not the checkpointed one
				history = append(history[:0], ckpt.history...)
				c = ckpt.cycle
				s.dumpIncident(&opt)
				continue
			}
			s.dumpIncident(&opt)
			return nil, fmt.Errorf("dmsolver: cycle %d: residual %g diverged (initial %g)", c, norm, initialOf(history, norm))
		}
		history = append(history, norm)
		c++
		if opt.LogEvery > 0 && opt.Log != nil && (c-1)%opt.LogEvery == 0 {
			fmt.Fprintf(opt.Log, "cycle %5d  residual %.3e\n", c-1, norm)
		}
		if opt.CheckpointEvery > 0 && c%opt.CheckpointEvery == 0 {
			ckpt = s.takeSnapshot(c, history)
			s.markIncident(func(st *solverTrace) trace.PhaseID { return st.phCkpt }, int64(c))
			if opt.CheckpointPath != "" {
				ck := &meshio.Checkpoint{
					Cycle: ckpt.cycle, Mach: opt.Mach, AlphaDeg: opt.AlphaDeg, CFL: ckpt.cfl,
					History: ckpt.history, Sol: ckpt.sol,
				}
				if err := meshio.SaveCheckpoint(opt.CheckpointPath, ck); err != nil {
					return nil, fmt.Errorf("dmsolver: checkpoint at cycle %d: %w", c, err)
				}
			}
		}
		if opt.Tolerance > 0 && history[0] > 0 && norm/history[0] < opt.Tolerance {
			res.Converged = true
			break
		}
	}

	res.Cycles = c
	res.History = history
	if len(history) > 0 {
		res.InitialNorm = history[0]
		res.FinalNorm = history[len(history)-1]
	}
	if res.InitialNorm > 0 && res.FinalNorm > 0 {
		res.Ordersof10 = -math.Log10(res.FinalNorm / res.InitialNorm)
	}
	res.FineSolution = s.GatherSolution()
	return res, nil
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

// diverged is the watchdog predicate: NaN/Inf, or a residual more than
// factor times the initial one.
func diverged(norm float64, history []float64, factor float64) bool {
	if math.IsNaN(norm) || math.IsInf(norm, 0) {
		return true
	}
	if len(history) == 0 {
		return false
	}
	return history[0] > 0 && norm > factor*history[0]
}

func initialOf(history []float64, fallback float64) float64 {
	if len(history) > 0 {
		return history[0]
	}
	return fallback
}
