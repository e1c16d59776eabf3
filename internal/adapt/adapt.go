// Package adapt drives error-indicator-driven mesh refinement *during* a
// solve — the adaptive loop the paper's Section 2.3 leaves as the open
// door ("new finer meshes can be introduced by adaptive refinement").
//
// The driver alternates solve intervals with adaptation epochs. Each
// epoch:
//
//  1. computes a per-cell error indicator from the running solution
//     (undivided density or relative pressure differences over the cell's
//     edges, or the density residual; indicator.go),
//  2. marks the strongest cells under a cell budget and refines them
//     selectively with red-green closure (refine.Selective),
//  3. transfers the solution to the new mesh — surviving vertices keep
//     their state, edge midpoints average their parents, with a defensive
//     admissibility clamp (transfer.go),
//  4. recomputes the stable time step (time-accurate runs shrink GlobalDt
//     to the refined mesh's CFL bound and re-mesh the remaining time so
//     the run still lands exactly on the final time), and
//  5. rebuilds the solve engine in place (solver.Steady.Rebuild): the
//     layout recomputed from the refined mesh alone into the arrays the
//     engine already owns, scratch grown in place, the worker pool
//     untouched.
//
// A solve interval is the one convergence loop (internal/runloop) run to
// the next epoch boundary on solver's single-grid or pooled engine.
//
// Every stage runs sequentially in mesh order and depends only on the
// mesh, the solution and the options — never on the worker count — so a
// fixed adaptation schedule produces bitwise-identical results at every
// pooled worker count (the solver engines already guarantee this for the
// solve intervals; the golden Sod test asserts it end to end).
package adapt

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"eul3d/internal/euler"
	"eul3d/internal/mesh"
	"eul3d/internal/meshio"
	"eul3d/internal/perf"
	"eul3d/internal/refine"
	"eul3d/internal/runloop"
	"eul3d/internal/solver"
	"eul3d/internal/trace"
)

// Options configures an adaptive run.
type Options struct {
	Mesh   *mesh.Mesh    // the mesh the run starts on: Resume's, when set
	Init   []euler.State // initial condition on Mesh; nil starts from the freestream
	Params euler.Params
	Meta   runloop.Meta // what every record carries about the run besides its state

	Engine solver.Config // the single grid (Gamma 0), the shape a refinement epoch can rebuild in place

	// Steps is the total step budget. Time-accurate runs (Params.GlobalDt
	// > 0) integrate to the fixed final time Steps*GlobalDt; adaptation
	// shrinks the step and raises the step count to land exactly there.
	Steps     int
	Tolerance float64 // steady runs: stop when norm/initial falls below this

	Budget    int     // cell budget; 0 = 4x the starting cell count
	Interval  int     // steps between adaptation epochs (default 50)
	MaxEpochs int     // refinement epochs allowed (default 2)
	Indicator string  // "density" (default), "pressure", "residual"
	Frac      float64 // fraction of cells marked per epoch (default 0.1)

	LogEvery int
	Log      io.Writer

	// Context, when non-nil, is checked before every step; cancellation
	// stops the run with Result.Cancelled set and a resumable record.
	Context  context.Context
	Progress func(step int, norm float64)

	// Trace, when non-nil, records an "adapt" track with one span per
	// adaptation epoch and a nested rebuild span.
	Trace *trace.Tracer

	// CheckpointEvery > 0 invokes OnCheckpoint with a fresh record every
	// that many steps (and after every adaptation epoch, so a resume never
	// replays a refinement).
	CheckpointEvery int
	OnCheckpoint    func(*meshio.Checkpoint) error

	// NameMesh, when set, names every mesh an epoch produces — the name
	// each later record's Mesh carries, so that a record says which mesh
	// its solution lives on. Records name the starting mesh "" (or, on a
	// resumed run, as Resume did). Without it, records past an epoch leave
	// Mesh empty and the caller keeps the mesh beside them (Result.Mesh).
	NameMesh func(*mesh.Mesh) (string, error)

	// Resume continues a run from a record (produced by cancellation or
	// OnCheckpoint) instead of starting from Init; Mesh must be the mesh
	// the record names.
	Resume *meshio.Checkpoint
}

// EpochStat records one adaptation epoch.
type EpochStat struct {
	Step        int     `json:"step"` // step count when the epoch ran
	Marked      int     `json:"marked"`
	Red         int     `json:"red"`
	Green       int     `json:"green"`
	CellsBefore int     `json:"cells_before"`
	CellsAfter  int     `json:"cells_after"`
	NewVerts    int     `json:"new_verts"`
	Dt          float64 `json:"dt,omitempty"` // dt after the epoch; 0 on steady runs
	RebuildNS   int64   `json:"rebuild_ns"`
}

// Result summarizes an adaptive run: the loop's result over all solve
// intervals (steps map onto its cycles) and what adaptation did.
type Result struct {
	runloop.Result
	Steps int // = Cycles

	Mesh     *mesh.Mesh    // final (adapted) mesh
	Solution []euler.State // solution on Mesh (= FineSolution)

	Epochs       []EpochStat
	CellsRefined int        // total cells added across all epochs
	Stats        perf.Stats // driver phases: solve/indicator/refine/transfer/rebuild

	Snap *meshio.Checkpoint // set when Cancelled: the resume point, on Mesh
}

// Driver phase slots of the perf accumulator.
const (
	phSolve = iota
	phIndicator
	phRefine
	phTransfer
	phRebuild
	nPhases
)

var phaseNames = [nPhases]string{"solve", "indicator", "refine", "transfer", "rebuild"}

// Run executes an adaptive solve.
func Run(opt Options) (*Result, error) {
	m, w, p := opt.Mesh, opt.Init, opt.Params
	step, epochs, since, cellsRefined := 0, 0, 0, 0
	dt := p.GlobalDt
	timeAccurate := dt > 0
	var history []float64
	var meshName string
	stepsLeft := opt.Steps
	if m == nil || m.NV() == 0 {
		return nil, errors.New("adapt: nil or empty mesh")
	}
	if opt.Steps <= 0 {
		return nil, errors.New("adapt: Steps must be positive")
	}
	if opt.Engine.Gamma != 0 {
		return nil, errors.New("adapt: a multigrid engine cannot be rebuilt onto a refined mesh (want the single grid, Gamma 0)")
	}
	if rs := opt.Resume; rs != nil {
		w, meshName = rs.Sol, rs.Mesh
		history = append(history, rs.History...)
		step, epochs, since = rs.Cycle, rs.Epochs, rs.SinceEpoch
		cellsRefined = rs.CellsRefined
		if timeAccurate {
			if rs.Dt <= 0 {
				return nil, errors.New("adapt: resuming a time-accurate run from a record with no time step")
			}
			dt, stepsLeft = rs.Dt, rs.StepsLeft
			p.GlobalDt = dt
		} else {
			stepsLeft = opt.Steps - step
		}
	}
	interval := opt.Interval
	if interval <= 0 {
		interval = 50
	}
	maxEpochs := opt.MaxEpochs
	if maxEpochs <= 0 {
		maxEpochs = 2
	}
	budget := opt.Budget
	if budget <= 0 {
		budget = 4 * (m.NT() - cellsRefined) // the starting cell count, also on a resumed run
	}
	frac := opt.Frac
	if frac <= 0 || frac > 0.5 {
		frac = 0.1
	}
	ind, err := newIndicator(opt.Indicator)
	if err != nil {
		return nil, err
	}
	eng, err := solver.Open([]*mesh.Mesh{m}, p, opt.Engine)
	if err != nil {
		return nil, fmt.Errorf("adapt: %w", err)
	}
	defer eng.Close()
	if w != nil {
		if err := eng.SetInitial(w); err != nil {
			return nil, fmt.Errorf("adapt: %w", err)
		}
	}

	var atrack *trace.Track
	var phEpoch, phRebuildTr trace.PhaseID
	if opt.Trace != nil {
		atrack = opt.Trace.Track("adapt")
		phEpoch = opt.Trace.Phase("epoch")
		phRebuildTr = opt.Trace.Phase("rebuild")
	}

	acc := perf.NewAccum(phaseNames[:]...)
	res := &Result{}
	record := func(history []float64) *meshio.Checkpoint {
		ck := opt.Meta.Checkpoint(append([]float64(nil), history...), append([]euler.State(nil), eng.Solution()...))
		ck.Mesh, ck.Epochs, ck.SinceEpoch, ck.StepsLeft, ck.CellsRefined, ck.Dt = meshName, epochs, since, stepsLeft, cellsRefined, dt
		return ck
	}

	lo := runloop.Options{Context: opt.Context}
	if !timeAccurate {
		lo.Tolerance = opt.Tolerance
	}
	// Every step advances the driver's counters here — before the loop's
	// checkpoint hook runs, so a record sees them current. Steps are
	// numbered from 1, and the progress line carries the mesh size and epoch
	// count the loop's own does not know.
	lo.Progress = func(c int, norm float64) {
		step, stepsLeft, since = c+1, stepsLeft-1, since+1
		if opt.Progress != nil {
			opt.Progress(step, norm)
		}
		if opt.LogEvery > 0 && opt.Log != nil && step%opt.LogEvery == 0 {
			fmt.Fprintf(opt.Log, "step %5d  res %.6e  cells %d  epochs %d\n", step, norm, m.NT(), epochs)
		}
	}
	if opt.CheckpointEvery > 0 && opt.OnCheckpoint != nil {
		lo.CheckpointEvery = opt.CheckpointEvery
		lo.Checkpoint = func(history []float64) error {
			if len(history) == lo.MaxCycles {
				// The interval's last step: either the run is over, or the
				// epoch below decides (a resume never replays a refinement).
				return nil
			}
			return opt.OnCheckpoint(record(history))
		}
	}

	for {
		// One solve interval: the loop, to the step the next epoch is due
		// after — if that is not the run's last — or to the end.
		lo.MaxCycles = step + stepsLeft
		if due := max(interval-since, 1); epochs < maxEpochs && m.NT() < budget && due < stepsLeft {
			lo.MaxCycles = step + due
		}
		t0 := time.Now()
		lr, err := runloop.Run(eng, history, lo)
		acc.Add(phSolve, time.Since(t0), 0)
		if err != nil {
			return nil, fmt.Errorf("adapt: %w", err)
		}
		res.Result, history = *lr, lr.History
		if lr.Cancelled {
			res.Snap = record(history)
		}
		if lr.Cancelled || lr.Converged || lr.Diverged || stepsLeft == 0 {
			break
		}

		if since >= interval && epochs < maxEpochs && m.NT() < budget {
			epochStart := time.Now()
			t0 = epochStart
			w = eng.Solution()
			eta, err := ind.compute(m, w, p)
			if err != nil {
				return nil, fmt.Errorf("adapt: epoch %d: %w", epochs+1, err)
			}
			marked, nmark := markCells(eta, frac, budget, m.NT())
			acc.Add(phIndicator, time.Since(t0), 0)
			since = 0
			if nmark == 0 {
				continue // nothing exceeds the threshold; check again next interval
			}

			t0 = time.Now()
			r, err := refine.Selective(m, marked)
			if err != nil {
				return nil, fmt.Errorf("adapt: epoch %d: %w", epochs+1, err)
			}
			if err := r.Mesh.Validate(1e-9); err != nil {
				return nil, fmt.Errorf("adapt: epoch %d produced invalid mesh: %w", epochs+1, err)
			}
			acc.Add(phRefine, time.Since(t0), 0)

			t0 = time.Now()
			wNew := Transfer(r, w, &p)
			acc.Add(phTransfer, time.Since(t0), 0)

			st := EpochStat{
				Step: step, Marked: nmark,
				Red: r.Red, Green: r.Green,
				CellsBefore: m.NT(), CellsAfter: r.Mesh.NT(),
				NewVerts: r.Mesh.NV() - r.NVOld,
			}

			if timeAccurate {
				// Rescale the global step to the refined mesh's stability
				// bound and re-mesh the remaining time R = dt*stepsLeft into
				// equal steps, so the run still ends exactly at the final
				// time. dt never grows: coarsening is not implemented, and a
				// larger step would leave the committed stability margin.
				stableOld := euler.MinStableDt(m, p, w)
				stableNew := euler.MinStableDt(r.Mesh, p, wNew)
				ratio := 1.0
				if stableOld > 0 && stableNew < stableOld {
					ratio = stableNew / stableOld
				}
				remaining := dt * float64(stepsLeft)
				n := int(math.Ceil(remaining/(dt*ratio) - 1e-12))
				if n < stepsLeft {
					n = stepsLeft
				}
				dt = remaining / float64(n)
				stepsLeft = n
				p.GlobalDt = dt
				st.Dt = dt
			}

			tR := time.Now()
			err = eng.Rebuild(r.Mesh, p, wNew)
			rebuildDur := time.Since(tR)
			if err != nil {
				return nil, fmt.Errorf("adapt: epoch %d rebuild: %w", epochs+1, err)
			}
			acc.Add(phRebuild, rebuildDur, 0)
			st.RebuildNS = int64(rebuildDur)

			cellsRefined += r.Mesh.NT() - m.NT()
			m = r.Mesh
			epochs++
			meshName = ""
			if opt.NameMesh != nil {
				if meshName, err = opt.NameMesh(m); err != nil {
					return nil, fmt.Errorf("adapt: naming the mesh of epoch %d: %w", epochs, err)
				}
			}
			res.Epochs = append(res.Epochs, st)
			if atrack != nil {
				now := time.Now()
				atrack.Span(phEpoch, epochStart, now, int64(epochs))
				atrack.Span(phRebuildTr, tR, tR.Add(rebuildDur), int64(epochs))
			}
			if opt.Log != nil {
				fmt.Fprintf(opt.Log, "epoch %d @ step %d: %d marked, cells %d -> %d (red %d, green %d), rebuild %.2fms\n",
					epochs, step, nmark, st.CellsBefore, st.CellsAfter, r.Red, r.Green,
					float64(st.RebuildNS)/1e6)
			}
			if opt.CheckpointEvery > 0 && opt.OnCheckpoint != nil {
				if err := opt.OnCheckpoint(record(history)); err != nil {
					return nil, fmt.Errorf("adapt: checkpoint after epoch %d: %w", epochs, err)
				}
			}
		}
	}

	res.Steps, res.Solution = res.Cycles, res.FineSolution
	res.Mesh = m
	res.CellsRefined = cellsRefined
	res.Stats = acc.Stats()
	return res, nil
}
