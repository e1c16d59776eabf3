package multigrid

import (
	"eul3d/internal/euler"
	"eul3d/internal/flops"
	"eul3d/internal/mesh"
)

// Levels is one engine's execution of the pieces of a FAS cycle on grid
// level l (0 is the finest). Cycle decides which piece runs on which level
// and when; an engine decides only how a piece executes — inline on whole
// arrays (Solver), on a worker pool (package smsolver), or as per-processor
// phases between PARTI exchanges (package dmsolver).
type Levels interface {
	// Step advances level l by one time step, under its forcing on a coarse
	// level, and returns its first-stage residual norm. fresh reports that
	// the step directly follows Restrict(l-1): level l's solution is still
	// the restricted one, and R(w') is what its first stage evaluates
	// before the forcing is added. An engine whose restriction formed
	// R(w') as that stage's front half (see Restrict) starts a fresh step
	// from it; one that does not ignores fresh.
	Step(l int, fresh bool) (float64, error)
	// Restrict forms the residual on level l, restricts W and the residual
	// to level l+1, repairs and saves the restricted states, and forms level
	// l+1's forcing P = R' - R(w'). An engine may form R(w') as the front
	// half of a step's first stage on w' — the snapshot, the vertex terms,
	// the sweeps with the spectral radii, the shock switch with the time
	// steps and dissipation pass 2 — which is the residual's arithmetic plus
	// the radii and time steps, and leave it for the fresh step that follows.
	Restrict(l int) error
	// Correct forms level l+1's correction w - w', prolongs it to level l,
	// smooths it and applies it under the positivity guard.
	Correct(l int) error
}

// Cycle performs one FAS cycle of an n-level sequence from level l down and
// returns level l's residual norm: a step on l and, unless l is the
// coarsest, the restriction to l+1, gamma visits of l+1 (1 gives a V-cycle,
// 2 a W-cycle) and the correction of l. It is the one statement of the
// recursion — every engine's cycle, FMG's per-level solves and Schedule are
// calls of it. The first error a hook returns is returned at once and no
// later hook runs, so executors that must stay in lockstep (the distributed
// solver's MIMD processors, which all see the same error) leave together.
// The first visit of l+1 after the restriction is fresh (Levels.Step);
// level l's own step, the top of the cycle, is not.
func Cycle(e Levels, l, n, gamma int) (float64, error) {
	return cycle(e, l, n, gamma, false)
}

func cycle(e Levels, l, n, gamma int, fresh bool) (float64, error) {
	norm, err := e.Step(l, fresh)
	if err != nil || l == n-1 {
		return norm, err
	}
	if err := e.Restrict(l); err != nil {
		return 0, err
	}
	visits := gamma
	if l+1 == n-1 {
		visits = 1 // revisiting the coarsest grid twice in a row is idle
	}
	for v := 0; v < visits; v++ {
		if _, err := cycle(e, l+1, n, gamma, v == 0); err != nil {
			return 0, err
		}
	}
	if err := e.Correct(l); err != nil {
		return 0, err
	}
	return norm, nil
}

// LevelCost is the analytic flop count (internal/flops) of each piece of a
// cycle on one level. Restrict and Prolong are the transfers between the
// level and the next coarser one, zero on the coarsest. Forcing prices
// R(w') as the engines that start a fresh step from it form it
// (Levels.Step): a fresh step then costs Step - Forcing, so a fresh visit
// costs a step and no residual.
type LevelCost struct {
	Edges    int64 // the level's weight in WorkUnits
	Step     int64 // one time step
	Residual int64 // one residual evaluation
	Forcing  int64 // R(w') as a step's stage-0 front half: Residual + the spectral radii and time steps
	Restrict int64 // variables down + the residual's transpose scatter
	Prolong  int64 // the correction up
	Correct  int64 // correction smoothing + the guarded update
}

// Ledger is the cost of every level of a sequence, finest first: what the
// engines charge their Stats per piece, and what CycleFlops and WorkUnits
// total over a cycle.
type Ledger []LevelCost

// NewLedger prices the pieces of a cycle on meshes (finest first) under the
// scheme parameters p.
func NewLedger(meshes []*mesh.Mesh, p euler.Params) Ledger {
	c := make(Ledger, len(meshes))
	for l, m := range meshes {
		nv, ne, nbf := int64(m.NV()), int64(m.NE()), int64(len(m.BFaces))
		c[l] = LevelCost{
			Edges:    ne,
			Step:     flops.Step(nv, ne, nbf, len(p.Stages), euler.DissipStages, p.NSmooth),
			Residual: flops.Residual(nv, ne, nbf),
			Forcing:  flops.Residual(nv, ne, nbf) + flops.TimeSteps(nv, ne, nbf),
			Correct:  int64(p.NSmooth)*(ne*flops.SmoothEdge+nv*flops.SmoothVert) + nv*flops.UpdateVert,
		}
		if l > 0 {
			nvFine := int64(meshes[l-1].NV())
			c[l-1].Restrict = (nv + nvFine) * flops.XferVert
			c[l-1].Prolong = nvFine * flops.XferVert
		}
	}
	return c
}

// CycleFlops returns the flops of one cycle of index gamma as the pooled
// and distributed engines run it: on every level visit a step, less its
// front half (Forcing) when it directly follows a restriction, and, above the
// coarsest level, the restriction (its own residual, the transfer down,
// the coarse residual as a step's front half) and the correction. The
// serial Solver recomputes the fresh visits' front halves, and charges
// each its Residual more.
func (c Ledger) CycleFlops(gamma int) int64 {
	var fl int64
	for _, e := range Schedule(len(c), gamma) {
		l := e.Level
		switch {
		case e.Kind == EulerStep && e.Fresh:
			fl += c[l].Step - c[l].Forcing
		case e.Kind == EulerStep:
			fl += c[l].Step
		default: // a correction: one per restriction
			fl += c[l].Residual + c[l].Restrict + c[l+1].Forcing + c[l].Prolong + c[l].Correct
		}
	}
	return fl
}

// WorkUnits counts the time steps of one cycle of index gamma in fine-grid
// steps, each level's steps weighted by its edge count relative to the
// finest level's. It is a step count, not a time: it leaves out the
// residuals, transfers and corrections, and what a step costs beyond its
// edges. So it is not the paper's "a W-cycle requires approximately 90%
// more CPU time than a single grid cycle, the V-cycle 75%", which is
// measured: on a 4-level 32x16x12 channel it reads +36 % (W) and +16 % (V)
// where the sequential engines take +84 % and +52 % (EXPERIMENTS.md,
// "In-text claims").
func (c Ledger) WorkUnits(gamma int) float64 {
	wu := 0.0
	for l, v := range Visits(len(c), gamma) {
		wu += float64(v) * float64(c[l].Edges) / float64(c[0].Edges)
	}
	return wu
}

// The vertex pieces of the FAS cycle as range functions over [lo,hi), so
// the three drivers — the serial Solver (whole arrays), the pooled engine
// (worker chunks) and the distributed solver (each processor's owned
// range) — run one statement of them. Ranges are disjoint writes, so any
// chunking reproduces the whole-array result bitwise.

// RepairSave enforces the positivity floors on the restricted states
// w[lo:hi] and snapshots them into saved: interpolated conserved variables
// can carry negative pressure (pressure is not convex in them), and the
// coarse grid evaluates sound speeds on these states next.
func RepairSave(p *euler.Params, w, saved []euler.State, lo, hi int) {
	for i := lo; i < hi; i++ {
		st := p.Repair(w[i])
		w[i] = st
		saved[i] = st
	}
}

// Subtract forms a -= b: the forcing P = R' - R(w') once a holds the
// restricted residual R' and b the coarse residual of the restricted state.
func Subtract(a, b []euler.State, lo, hi int) {
	for i := lo; i < hi; i++ {
		for k := 0; k < euler.NVar; k++ {
			a[i][k] -= b[i][k]
		}
	}
}

// Delta forms dst = a - b: the coarse-grid correction w - w'.
func Delta(dst, a, b []euler.State, lo, hi int) {
	for i := lo; i < hi; i++ {
		for k := 0; k < euler.NVar; k++ {
			dst[i][k] = a[i][k] - b[i][k]
		}
	}
}

// ApplyCorrection adds the prolonged correction corr to w[lo:hi], skipping
// a vertex where the sum fails the positivity guard.
func ApplyCorrection(p *euler.Params, w, corr []euler.State, lo, hi int) {
	for i := lo; i < hi; i++ {
		var cand euler.State
		for k := 0; k < euler.NVar; k++ {
			cand[k] = w[i][k] + corr[i][k]
		}
		if p.Guard(cand) {
			w[i] = cand
		}
	}
}
