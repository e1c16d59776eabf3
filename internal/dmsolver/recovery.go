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
// under the one convergence loop (internal/runloop). Run takes the loop's
// Options as every entry point does; Restore is the one way a run resumes.
// The stepper keeps the last snapshot and answers a failed cycle with
// runloop.Rewind. Three mechanisms compose:
//
//   - the loop's periodic checkpoints snapshot the fine-grid solution,
//     cycle count, residual history and the CFL in force — the only state
//     that persists across cycles (coarse multigrid levels are rebuilt every
//     cycle from the fine grid). Each record becomes the rewind point before
//     it goes on to the caller's OnCheckpoint, so CheckpointEvery alone
//     keeps snapshots in memory; the start of the run is one too;
//   - on a whole-node crash (simnet.ErrNodeDown bubbling out of a cycle)
//     the fabric is repaired, every partition is restored from the last
//     checkpoint, and the run resumes at the checkpointed cycle. Because
//     the solver is deterministic, the replayed cycles — and therefore the
//     final solution and residual history — are bitwise identical to a
//     fault-free run;
//   - a divergence watchdog catches NaN/Inf or blown-up residuals, halves
//     the CFL and retries from the last checkpoint, bounded by
//     maxCFLBackoffs. Its records carry the lowered CFL, so Restore adopts
//     a record's CFL where solver.Steady.Restore rejects a foreign one.
//
// Transient message faults (drops, corruption, duplication, delays,
// reordering) never reach this layer: the PARTI executors heal them with
// the bounded retry/re-request protocol in parti.recvHealing.

// The budgets of a run: past maxRecoveries crash recoveries or
// maxCFLBackoffs watchdog retries the run fails, and a residual above
// blowupFactor times the initial one counts as divergence.
const (
	maxRecoveries  = 3
	maxCFLBackoffs = 2
	blowupFactor   = 1e4
)

// RunResult summarizes a fault-tolerant distributed run: the loop's result
// (FineSolution is a gathered copy) and what recovering cost.
type RunResult struct {
	runloop.Result
	Recoveries  int // crash recoveries performed
	CFLBackoffs int // divergence-watchdog retries performed
}

// Restore warm-starts the solver from a checkpoint so that the next Run
// continues where the checkpointed run stopped: every partition's owned
// and ghost values are filled from ck.Sol, cycle numbering resumes at
// ck.Cycle and ck.History is prepended to the run's history. A record that
// states a CFL sets the solver's: the watchdog writes its checkpoints at
// the CFL it backed off to, and the resumed run continues at that one.
func (s *Solver) Restore(ck *meshio.Checkpoint) error {
	if len(ck.History) != ck.Cycle {
		return fmt.Errorf("dmsolver: checkpoint at cycle %d has %d history entries", ck.Cycle, len(ck.History))
	}
	if err := s.setFineSolution(ck.Sol); err != nil {
		return err
	}
	if ck.CFL > 0 {
		s.P.CFL = ck.CFL
	}
	s.prior = append([]float64(nil), ck.History...)
	return nil
}

// setFineSolution overwrites the fine-grid solution from a global state
// array, filling owned ranges and ghost slots without communication.
func (s *Solver) setFineSolution(sol []euler.State) error {
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
// checkpoint it can be put back to, and how often it has been.
type recovering struct {
	s   *Solver
	log io.Writer

	// snap is the rewind point: the last periodic checkpoint, or the run's
	// start. Its history aliases the loop's, whose first snap.Cycle entries
	// no rewind ever rewrites.
	snap                 *meshio.Checkpoint
	initial              float64 // the history's first residual: what the watchdog measures a blow-up against
	recoveries, backoffs int
}

func (r *recovering) Solution() []euler.State { return r.s.GatherSolution() }

// rewind puts the solver back to the rewind point at the given CFL: every
// partition's owned and ghost values are rebuilt from the global solution,
// and the transport layer is reset so the replay starts from a clean
// bulk-synchronous slate. It returns what tells the loop to replay.
func (r *recovering) rewind(cfl float64) error {
	r.s.Fabric.Repair()
	if err := r.s.setFineSolution(r.snap.Sol); err != nil {
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
	s, log := r.s, r.log
	s.Fabric.BeginCycle(c)
	norm, err := s.Cycle()
	if err != nil {
		if !errors.Is(err, simnet.ErrNodeDown) || r.recoveries >= maxRecoveries {
			return 0, fmt.Errorf("cycle %d: %w", c, err)
		}
		r.recoveries++
		s.markIncident("node-crash", c)
		if log != nil {
			fmt.Fprintf(log, "cycle %5d  node crash (%v); restoring checkpoint at cycle %d (recovery %d/%d)\n",
				c, err, r.snap.Cycle, r.recoveries, maxRecoveries)
		}
		rw := r.rewind(r.snap.CFL)
		s.markIncident("recovery", r.snap.Cycle)
		s.dumpIncident(log)
		return 0, rw
	}
	if c == 0 {
		r.initial = norm
	}
	// The watchdog predicate: NaN/Inf, or a later residual more than
	// blowupFactor times the initial one.
	blownUp := c > 0 && r.initial > 0 && norm > blowupFactor*r.initial
	if !blownUp && !math.IsNaN(norm) && !math.IsInf(norm, 0) {
		return norm, nil
	}
	s.markIncident("cfl-backoff", c)
	if r.backoffs >= maxCFLBackoffs {
		s.dumpIncident(log)
		return 0, fmt.Errorf("cycle %d: residual %g diverged (initial %g)", c, norm, r.initial)
	}
	r.backoffs++
	newCFL := s.P.CFL * 0.5
	if log != nil {
		fmt.Fprintf(log, "cycle %5d  residual %.3e diverging; CFL %.3g -> %.3g, retrying from cycle %d (backoff %d/%d)\n",
			c, norm, s.P.CFL, newCFL, r.snap.Cycle, r.backoffs, maxCFLBackoffs)
	}
	rw := r.rewind(newCFL) // keep the reduced CFL, not the checkpointed one
	s.dumpIncident(log)
	return 0, rw
}

// Run drives the distributed solve to convergence or the cycle limit,
// surviving seeded interconnect faults and node crashes when checkpointing
// is enabled. After a Restore it picks up at the checkpointed cycle, and
// MaxCycles counts the restored prefix. Every record handed to
// opt.OnCheckpoint carries the CFL in force. Under any fault schedule the
// solver heals from, the final solution and residual history are bitwise
// identical to the fault-free run.
func (s *Solver) Run(opt runloop.Options) (*RunResult, error) {
	prior := append([]float64(nil), s.prior...)
	r := &recovering{s: s, log: opt.Log}
	if len(prior) > 0 {
		r.initial = prior[0]
	}
	// Always hold a rewind point, even before the first periodic interval.
	r.snap = runloop.Meta{CFL: s.P.CFL}.Checkpoint(prior, s.GatherSolution())
	sink := opt.OnCheckpoint
	opt.OnCheckpoint = func(ck *meshio.Checkpoint) error {
		ck.CFL = s.P.CFL
		r.snap = ck
		s.markIncident("checkpoint", ck.Cycle)
		if sink == nil {
			return nil
		}
		return sink(ck)
	}
	res, err := runloop.Run(r, prior, opt)
	if err != nil {
		return nil, fmt.Errorf("dmsolver: %w", err)
	}
	return &RunResult{Result: *res, Recoveries: r.recoveries, CFLBackoffs: r.backoffs}, nil
}

// dumpIncident writes the flight recorder to the incident path SetTrace
// was given, capturing the ring contents — the events leading up to the
// incident that was just marked. Dump failures are reported on the log but
// never fail the run: post-mortem capture must not take the solve down
// with it.
func (s *Solver) dumpIncident(log io.Writer) {
	if s.st == nil || s.st.incident == "" {
		return
	}
	if err := s.st.tr.WriteChromeFile(s.st.incident); err != nil {
		if log != nil {
			fmt.Fprintf(log, "incident trace dump: %v\n", err)
		}
		return
	}
	if log != nil {
		fmt.Fprintf(log, "incident trace dumped to %s\n", s.st.incident)
	}
}
