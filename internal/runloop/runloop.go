// Package runloop is the convergence loop — the one definition of a run
// every engine executes under (DESIGN §3.1). The paper runs one EUL3D on
// the Y-MP and on the Delta: the architecture changes how a cycle executes,
// never the loop around it. Options is the one description of a run:
// solver.Steady.Run and dmsolver.Solver.Run take it as it is, adapt.Run as
// its Loop, and each hands Run a Stepper and shapes its Result. A run's
// checkpoints have one shape too, the meshio.Checkpoint record the loop
// hands OnCheckpoint. The package is a leaf: it knows nothing of how a
// cycle executes.
package runloop

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"eul3d/internal/euler"
	"eul3d/internal/meshio"
)

// Stepper is what the loop drives.
type Stepper interface {
	// Cycle executes cycle c (0-based: c cycles are in the history) and
	// returns its fine-grid residual norm. An error other than a Rewind ends
	// the run and is returned as is.
	Cycle(c int) (norm float64, err error)
	// Solution returns the fine-grid solution; it may alias live state.
	Solution() []euler.State
}

// Rewind is the one thing a stepper can say besides a norm. Returned from
// Cycle as the error, it tells the loop the stepper has put the solution
// back to where it stood after To cycles (a crash rollback, a watchdog
// retry): the history beyond To is void and cycle To runs next. The loop
// obeys; bounding how often to rewind is the stepper's business, and one
// that has had enough returns an ordinary error instead.
type Rewind struct{ To int }

func (r Rewind) Error() string { return fmt.Sprintf("rewind to cycle %d", r.To) }

// Options describes a run. Every entry point takes it; the ones that need
// more wrap its hooks rather than restate its fields.
type Options struct {
	MaxCycles int     // hard iteration limit (total, including the prior history)
	Tolerance float64 // stop when residual/initial falls below this (0 = run all cycles)
	LogEvery  int     // progress line period (0 = silent)
	Log       io.Writer

	Context  context.Context               // nil, or checked before every cycle: cancellation stops the run, Result.Cancelled set
	Progress func(cycle int, norm float64) // nil, or called after every cycle with its 0-based index

	// OnCheckpoint, when set, is handed the run's record whenever the count
	// of completed cycles is a multiple of CheckpointEvery: Meta, the
	// history and the stepper's Solution (Meta.Checkpoint). The record
	// aliases live state, so the sink writes it out or copies it before it
	// returns. An error from it ends the run.
	CheckpointEvery int
	OnCheckpoint    func(*meshio.Checkpoint) error
	Meta            Meta // what every record carries about the run besides its state
}

// Result summarizes a run.
type Result struct {
	Cycles       int
	History      []float64 // residual norm per cycle
	InitialNorm  float64
	FinalNorm    float64
	Converged    bool
	Cancelled    bool // Options.Context was cancelled before the run finished
	Diverged     bool // stopped at a NaN/Inf residual, which is History's last entry
	Ordersof10   float64
	FineSolution []euler.State // the stepper's Solution when the run ended
}

// Run cycles s until the tolerance is met, MaxCycles cycles are in the
// history, the context is cancelled or the residual stops being a number.
// prior is the history of a run being continued (nil for a fresh one): Run
// takes it over, picks up at cycle len(prior), and MaxCycles counts it.
func Run(s Stepper, prior []float64, opt Options) (*Result, error) {
	if opt.MaxCycles <= 0 {
		return nil, errors.New("MaxCycles must be positive")
	}
	res := &Result{History: prior}
	for len(res.History) < opt.MaxCycles {
		if opt.Context != nil && opt.Context.Err() != nil {
			res.Cancelled = true
			break
		}
		c := len(res.History)
		norm, err := s.Cycle(c)
		if err != nil {
			var rw Rewind
			if errors.As(err, &rw) && rw.To >= 0 && rw.To <= c {
				res.History = res.History[:rw.To]
				continue
			}
			return nil, err
		}
		res.History = append(res.History, norm)
		if opt.Progress != nil {
			opt.Progress(c, norm)
		}
		if opt.LogEvery > 0 && opt.Log != nil && c%opt.LogEvery == 0 {
			fmt.Fprintf(opt.Log, "cycle %5d  residual %.3e\n", c, norm)
		}
		if math.IsNaN(norm) || math.IsInf(norm, 0) {
			// Cycling a blown-up solution on to MaxCycles would only hold the
			// engine; checkpointing it would overwrite the last good state.
			res.Diverged = true
			break
		}
		if opt.CheckpointEvery > 0 && opt.OnCheckpoint != nil && (c+1)%opt.CheckpointEvery == 0 {
			if err := opt.OnCheckpoint(opt.Meta.Checkpoint(res.History, s.Solution())); err != nil {
				return nil, fmt.Errorf("checkpoint at cycle %d: %w", c+1, err)
			}
		}
		if initial := res.History[0]; opt.Tolerance > 0 && initial > 0 && norm/initial < opt.Tolerance {
			res.Converged = true
			break
		}
	}
	res.Cycles = len(res.History)
	if res.Cycles > 0 {
		res.InitialNorm, res.FinalNorm = res.History[0], res.History[res.Cycles-1]
	}
	if res.InitialNorm > 0 && res.FinalNorm > 0 {
		res.Ordersof10 = -math.Log10(res.FinalNorm / res.InitialNorm)
	}
	res.FineSolution = s.Solution()
	return res, nil
}

// Meta is what a checkpoint records about a run besides its state.
type Meta struct {
	Mach, AlphaDeg, CFL float64
}

// Checkpoint maps a run's state — the history of the cycles completed and
// the solution they produced — to its durable record. The record aliases
// both slices: write it out, or copy them, before the run cycles again.
func (m Meta) Checkpoint(history []float64, sol []euler.State) *meshio.Checkpoint {
	return &meshio.Checkpoint{
		Cycle:    len(history),
		Mach:     m.Mach,
		AlphaDeg: m.AlphaDeg,
		CFL:      m.CFL,
		History:  history,
		Sol:      sol,
	}
}
