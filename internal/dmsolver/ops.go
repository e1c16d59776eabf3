package dmsolver

import (
	"math"

	"eul3d/internal/euler"
	"eul3d/internal/multigrid"
	"eul3d/internal/parti"
)

// This file holds the per-processor compute phases (the "executor" side of
// the inspector/executor transformation) and the sequential orchestration
// that loops them over all processors with whole-schedule exchanges.
// concurrent.go runs the same phases with one goroutine per processor and
// barrier-separated per-processor exchange halves; both modes produce
// identical results.
//
// The phases hold no arithmetic of their own: each hands processor p's
// local arrays — edge loops over [owned | ghost], vertex sweeps over the
// owned prefix [0, Dist.Count(p)) — to the function the sequential engine
// runs over the whole mesh: the reference operator of package euler, and
// for the inter-grid pieces multigrid's TransferOp and FAS range functions.

// ---- per-processor compute phases ----

// owned returns processor p's owned prefix of a local array.
func owned(lev *Level, p int, a []euler.State) []euler.State { return a[:lev.Dist.Count(p)] }

func (s *Solver) copyW0Proc(lev *Level, p int) {
	copy(owned(lev, p, lev.W0[p]), lev.W[p])
}

func (s *Solver) pressuresProc(lev *Level, p int) {
	euler.Pressures(s.P.Gas, lev.W[p], lev.Pres[p])
}

// convectiveProc assembles proc p's share of Q(w) into lev.Conv[p]
// (including ghost accumulations, scatter-added by the orchestrator).
func (s *Solver) convectiveProc(lev *Level, p int) {
	euler.Convective(&s.P, lev.Edges[p], lev.ENorm[p], lev.BFaces[p], lev.W[p], lev.Pres[p], lev.Conv[p])
}

func (s *Solver) dissPass1Proc(lev *Level, p int) {
	euler.DissPass1(lev.Edges[p], lev.W[p], lev.Pres[p], lev.Lapl[p], lev.Num[p], lev.Den[p])
}

func (s *Solver) nuProc(lev *Level, p int) {
	n := lev.Dist.Count(p)
	euler.ShockSwitch(lev.Num[p][:n], lev.Den[p][:n])
}

func (s *Solver) dissPass2Proc(lev *Level, p int) {
	euler.DissPass2(&s.P, lev.Edges[p], lev.ENorm[p], lev.W[p], lev.Pres[p], lev.Lapl[p], lev.Num[p], lev.Diss[p])
}

func (s *Solver) lamProc(lev *Level, p int) {
	euler.SpectralRadii(s.P.Gas, lev.Edges[p], lev.ENorm[p], lev.BFaces[p], lev.W[p], lev.Pres[p], lev.Lam[p])
}

func (s *Solver) dtProc(lev *Level, p int) {
	s.P.TimeSteps(lev.Dt[p][:lev.Dist.Count(p)], lev.Vol[p], lev.Lam[p])
}

func (s *Solver) combineResProc(lev *Level, p int, withForcing bool) {
	var forcing []euler.State
	if withForcing {
		forcing = lev.Forcing[p]
	}
	euler.CombineResidual(owned(lev, p, lev.Res[p]), lev.Conv[p], lev.Diss[p], forcing)
}

// normPartialProc sums this processor's share of the residual norm with
// the engine-wide blocked reduction (euler.NormBlock), so that a one-proc
// distributed solve reproduces the sequential norm bitwise.
func (s *Solver) normPartialProc(lev *Level, p int) float64 {
	return euler.ResidualNormSq(lev.Res[p], lev.Vol[p], lev.Dist.Count(p))
}

func (s *Solver) smoothRHSProc(lev *Level, p int, arr [][]euler.State) {
	copy(owned(lev, p, lev.RHS[p]), arr[p])
}

func (s *Solver) smoothAccumProc(lev *Level, p int, cur, next [][]euler.State) {
	euler.SmoothAccum(lev.Edges[p], cur[p], next[p])
}

func (s *Solver) smoothCombineProc(lev *Level, p int, next [][]euler.State, eps float64) {
	euler.SmoothCombine(lev.RHS[p], owned(lev, p, next[p]), lev.Deg[p], eps)
}

func (s *Solver) smoothWritebackProc(lev *Level, p int, arr, cur [][]euler.State) {
	copy(owned(lev, p, arr[p]), cur[p])
}

func (s *Solver) updateProc(lev *Level, p int, alpha float64) {
	s.P.StageUpdate(owned(lev, p, lev.W[p]), lev.W0[p], lev.Res[p], lev.Dt[p], lev.Vol[p], alpha)
}

// ---- multigrid per-processor phases ----

func (s *Solver) restrictInterpProc(fine, coarse *Level, p int) {
	coarse.Restrict[p].Interp(fine.W[p], coarse.W[p])
	multigrid.RepairSave(&s.P, coarse.W[p], coarse.WSaved[p], 0, coarse.Dist.Count(p))
}

func (s *Solver) residualScatterProc(fine, coarse *Level, p int) {
	coarse.Prolong[p].ScatterTranspose(fine.Res[p], coarse.Forcing[p])
}

func (s *Solver) forcingCombineProc(coarse *Level, p int) {
	multigrid.Subtract(coarse.Forcing[p], coarse.Res[p], 0, coarse.Dist.Count(p))
}

func (s *Solver) corrDeltaProc(coarse *Level, p int) {
	multigrid.Delta(coarse.Corr[p], coarse.W[p], coarse.WSaved[p], 0, coarse.Dist.Count(p))
}

func (s *Solver) corrInterpProc(fine, coarse *Level, p int) {
	coarse.Prolong[p].Interp(coarse.Corr[p], fine.Corr[p])
}

func (s *Solver) applyCorrProc(fine *Level, p int) {
	multigrid.ApplyCorrection(&s.P, fine.W[p], fine.Corr[p], 0, fine.Dist.Count(p))
}

// ---- sequential orchestration ----

func (s *Solver) forAll(fn func(p int)) {
	for p := 0; p < s.NProc; p++ {
		fn(p)
	}
}

// Sequential collective wrappers: count the execution and, with a tracer
// attached, bracket it with comm/compute spans (trace.go).

func (s *Solver) seqGatherStates(sch *parti.Schedule, lev *Level, data [][]euler.State) error {
	s.Comm.GatherState++
	return s.seqEx(exGatherState, lev.Index, func() error { return sch.GatherStates(s.Fabric, data) })
}

func (s *Solver) seqScatterAddStates(sch *parti.Schedule, lev *Level, data [][]euler.State) error {
	s.Comm.ScatterState++
	return s.seqEx(exScatterState, lev.Index, func() error { return sch.ScatterAddStates(s.Fabric, data) })
}

func (s *Solver) seqGatherFloats(sch *parti.Schedule, lev *Level, data [][]float64) error {
	s.Comm.GatherFloat++
	return s.seqEx(exGatherFloat, lev.Index, func() error { return sch.GatherFloats(s.Fabric, data) })
}

func (s *Solver) seqScatterAddFloats(sch *parti.Schedule, lev *Level, data [][]float64) error {
	s.Comm.ScatterFloat++
	return s.seqEx(exScatterFloat, lev.Index, func() error { return sch.ScatterAddFloats(s.Fabric, data) })
}

// gatherW refreshes the flow-variable ghosts of level lev.
func (s *Solver) gatherW(lev *Level) error {
	return s.seqGatherStates(lev.SchedW, lev, lev.W)
}

// convective assembles Q(w) into lev.Conv with the closing scatter-add.
func (s *Solver) convective(lev *Level) error {
	s.forAll(func(p int) { s.convectiveProc(lev, p) })
	return s.seqScatterAddStates(lev.SchedW, lev, lev.Conv)
}

// dissipation assembles D(w) into lev.Diss: pass 1 with scatter-add and
// re-gather, then pass 2 with a final scatter-add — the consecutive-loop
// structure that motivates the paper's incremental schedules.
func (s *Solver) dissipation(lev *Level) error {
	s.forAll(func(p int) { s.dissPass1Proc(lev, p) })
	if err := s.seqScatterAddStates(lev.SchedW, lev, lev.Lapl); err != nil {
		return err
	}
	if err := s.seqScatterAddFloats(lev.SchedW, lev, lev.Num); err != nil {
		return err
	}
	if err := s.seqScatterAddFloats(lev.SchedW, lev, lev.Den); err != nil {
		return err
	}
	s.forAll(func(p int) { s.nuProc(lev, p) })
	if err := s.seqGatherStates(lev.SchedW, lev, lev.Lapl); err != nil {
		return err
	}
	if err := s.seqGatherFloats(lev.SchedW, lev, lev.Num); err != nil {
		return err
	}
	s.forAll(func(p int) { s.dissPass2Proc(lev, p) })
	return s.seqScatterAddStates(lev.SchedW, lev, lev.Diss)
}

// timeSteps fills the time steps on owned vertices. In time-accurate mode
// (GlobalDt) the spectral radii feed nothing, so their loop and its
// scatter-add are skipped, as in the sequential engine.
func (s *Solver) timeSteps(lev *Level) error {
	if s.P.GlobalDt <= 0 {
		s.forAll(func(p int) { s.lamProc(lev, p) })
		if err := s.seqScatterAddFloats(lev.SchedW, lev, lev.Lam); err != nil {
			return err
		}
	}
	s.forAll(func(p int) { s.dtProc(lev, p) })
	return nil
}

// smooth applies the distributed implicit residual averaging to arr.
func (s *Solver) smooth(lev *Level, arr [][]euler.State) error {
	eps := s.P.EpsSmooth
	if eps == 0 || s.P.NSmooth == 0 {
		return nil
	}
	s.forAll(func(p int) { s.smoothRHSProc(lev, p, arr) })
	cur, next := arr, lev.Smooth
	for sweep := 0; sweep < s.P.NSmooth; sweep++ {
		if err := s.seqGatherStates(lev.SchedW, lev, cur); err != nil {
			return err
		}
		cc, nn := cur, next
		s.forAll(func(p int) { s.smoothAccumProc(lev, p, cc, nn) })
		if err := s.seqScatterAddStates(lev.SchedW, lev, next); err != nil {
			return err
		}
		s.forAll(func(p int) { s.smoothCombineProc(lev, p, nn, eps) })
		cur, next = next, cur
	}
	if &cur[0] != &arr[0] {
		s.forAll(func(p int) { s.smoothWritebackProc(lev, p, arr, cur) })
	}
	return nil
}

// residual computes R = Q - D (+ forcing if withForcing) into lev.Res at
// owned vertices.
func (s *Solver) residual(lev *Level, withForcing bool) error {
	if err := s.gatherW(lev); err != nil {
		return err
	}
	s.forAll(func(p int) { s.pressuresProc(lev, p) })
	if err := s.convective(lev); err != nil {
		return err
	}
	if err := s.dissipation(lev); err != nil {
		return err
	}
	s.forAll(func(p int) { s.combineResProc(lev, p, withForcing) })
	return nil
}

// step advances level l by one five-stage time step and returns the
// first-stage residual norm.
func (s *Solver) step(l int) (float64, error) {
	lev := s.Levels[l]
	withForcing := l > 0
	s.forAll(func(p int) { s.copyW0Proc(lev, p) })
	if err := s.gatherW(lev); err != nil {
		return 0, err
	}
	s.forAll(func(p int) { s.pressuresProc(lev, p) })
	if err := s.timeSteps(lev); err != nil {
		return 0, err
	}
	norm := 0.0
	for q, alpha := range s.P.Stages {
		if q > 0 {
			if err := s.gatherW(lev); err != nil {
				return 0, err
			}
			s.forAll(func(p int) { s.pressuresProc(lev, p) })
		}
		if err := s.convective(lev); err != nil {
			return 0, err
		}
		if q < euler.DissipStages {
			if err := s.dissipation(lev); err != nil {
				return 0, err
			}
		}
		s.forAll(func(p int) { s.combineResProc(lev, p, withForcing) })
		if q == 0 {
			sum := 0.0
			for p := 0; p < s.NProc; p++ {
				sum += s.normPartialProc(lev, p)
			}
			norm = math.Sqrt(sum / float64(lev.M.NV()))
		}
		if err := s.smooth(lev, lev.Res); err != nil {
			return 0, err
		}
		s.forAll(func(p int) { s.updateProc(lev, p, alpha) })
	}
	return norm, nil
}

// Cycle performs one multigrid cycle (or a plain time step for a single
// level) and returns the fine-grid residual norm.
func (s *Solver) Cycle() (float64, error) {
	return s.cycle(0)
}

func (s *Solver) cycle(l int) (float64, error) {
	norm, err := s.step(l)
	if err != nil || l == len(s.Levels)-1 {
		return norm, err
	}
	lev, next := s.Levels[l], s.Levels[l+1]

	// Residual of the post-step solution (with forcing on coarse levels).
	if err := s.residual(lev, l > 0); err != nil {
		return 0, err
	}

	// Restrict flow variables: refresh this level's ghosts through every
	// schedule that allocated slots the restriction may address — the
	// edge-loop schedule, this level's own prolongation schedule when it is
	// itself a coarse level (the incremental restriction schedule counts
	// those slots as already ghosted and leaves them out, but only Corr and
	// Forcing ever travel through SchedCoarse otherwise), and the
	// incremental restriction schedule — then interpolate onto coarse-owned
	// vertices.
	if err := s.gatherW(lev); err != nil {
		return 0, err
	}
	if lev.SchedCoarse != nil {
		if err := s.seqGatherStates(lev.SchedCoarse, lev, lev.W); err != nil {
			return 0, err
		}
	}
	if err := s.seqGatherStates(next.SchedFine, lev, lev.W); err != nil {
		return 0, err
	}
	s.forAll(func(p int) { s.restrictInterpProc(lev, next, p) })

	// Restrict residuals conservatively. The prolongation addresses reuse
	// coarse ghost slots already allocated by the coarse edge-loop
	// schedule where possible (incremental schedules); accumulated
	// contributions return to their owners through both schedules.
	s.forAll(func(p int) { s.residualScatterProc(lev, next, p) })
	if err := s.seqScatterAddStates(next.SchedCoarse, next, next.Forcing); err != nil {
		return 0, err
	}
	if err := s.seqScatterAddStates(next.SchedW, next, next.Forcing); err != nil {
		return 0, err
	}

	// Forcing P = R' - R(w').
	if err := s.residual(next, false); err != nil {
		return 0, err
	}
	s.forAll(func(p int) { s.forcingCombineProc(next, p) })

	visits := s.Gamma
	if l+1 == len(s.Levels)-1 {
		visits = 1
	}
	for v := 0; v < visits; v++ {
		if _, err := s.cycle(l + 1); err != nil {
			return 0, err
		}
	}

	// Correction: coarse delta, ghost refresh through both schedules,
	// interpolate to fine, smooth, apply.
	s.forAll(func(p int) { s.corrDeltaProc(next, p) })
	if err := s.seqGatherStates(next.SchedCoarse, next, next.Corr); err != nil {
		return 0, err
	}
	if err := s.seqGatherStates(next.SchedW, next, next.Corr); err != nil {
		return 0, err
	}
	s.forAll(func(p int) { s.corrInterpProc(lev, next, p) })
	if err := s.smooth(lev, lev.Corr); err != nil {
		return 0, err
	}
	s.forAll(func(p int) { s.applyCorrProc(lev, p) })
	return norm, nil
}
