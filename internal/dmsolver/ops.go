package dmsolver

import (
	"math"

	"eul3d/internal/euler"
	"eul3d/internal/multigrid"
	"eul3d/internal/parti"
)

// This file is the distributed solver's program: the time step, the
// residual, the dissipation passes, the residual averaging and the FAS
// cycle, each stated once as the sequence of per-processor compute phases
// and PARTI exchanges the paper's node program runs. It is written against
// a driver (driver.go), which decides the two things an execution mode
// owns — which processors a compute phase runs on here, and how an
// exchange completes — and it branches only on Params, the level count
// and Gamma, never on the processor, so every executor of it walks the
// same exchange plan.
//
// The phases hold no arithmetic of their own: each hands processor p's
// local arrays — edge loops over [owned | edge ghosts], vertex sweeps over
// the owned prefix [0, Dist.Count(p)) — to the function the sequential engine
// runs over the whole mesh: the reference operator of package euler, and
// for the inter-grid pieces multigrid's TransferOp and FAS range functions.

// owned returns processor p's owned prefix of a local array.
func owned(lev *Level, p int, a []euler.State) []euler.State { return a[:lev.Dist.Count(p)] }

// edgeSpan returns the prefix of a local array the edge and boundary-face
// loops address: [owned | edge ghosts] (Level.EdgeSpan). An operator handed
// it as the array it overwrites or sweeps stops there, leaving the
// transfer-only ghost slots behind it alone.
func edgeSpan[T any](lev *Level, p int, a []T) []T { return a[:lev.EdgeSpan[p]] }

// each runs one compute phase on every processor x executes.
func each(x driver, phase func(p int)) {
	lo, hi := x.procs()
	for p := lo; p < hi; p++ {
		phase(p)
	}
}

// refreshW gathers level lev's flow-variable ghosts and recomputes the
// pressures over [owned | edge ghosts].
func (s *Solver) refreshW(x driver, lev *Level) error {
	if err := x.exchange(parti.Gather, lev.SchedW, lev, parti.States(lev.W)); err != nil {
		return err
	}
	each(x, func(p int) { euler.Pressures(s.P.Gas, edgeSpan(lev, p, lev.W[p]), lev.Pres[p]) })
	return nil
}

// timeSteps fills the time steps on owned vertices. In time-accurate mode
// (GlobalDt) the spectral radii feed nothing, so their loop and its
// scatter-add are skipped, as in the sequential engine.
func (s *Solver) timeSteps(x driver, lev *Level) error {
	if s.P.GlobalDt <= 0 {
		each(x, func(p int) {
			euler.SpectralRadii(s.P.Gas, lev.Edges[p], lev.ENorm[p], lev.BFaces[p], lev.W[p], lev.Pres[p], edgeSpan(lev, p, lev.Lam[p]))
		})
		if err := x.exchange(parti.ScatterAdd, lev.SchedW, lev, parti.Floats(lev.Lam)); err != nil {
			return err
		}
	}
	each(x, func(p int) { s.P.TimeSteps(lev.Dt[p][:lev.Dist.Count(p)], lev.Vol[p], lev.Lam[p]) })
	return nil
}

// dissipation finishes D(w) into lev.Diss from pass-1 sums complete at
// their owners: the shock switch, the re-gather of Laplacian and switch in
// one exchange, then pass 2 with its closing scatter-add — the
// consecutive-loop structure that motivates the paper's incremental
// schedules.
func (s *Solver) dissipation(x driver, lev *Level) error {
	each(x, func(p int) {
		n := lev.Dist.Count(p)
		euler.ShockSwitch(lev.Num[p][:n], lev.Den[p][:n])
	})
	if err := x.exchange(parti.Gather, lev.SchedW, lev, parti.States(lev.Lapl).And(parti.Floats(lev.Num))); err != nil {
		return err
	}
	each(x, func(p int) {
		euler.DissPass2(&s.P, lev.Edges[p], lev.ENorm[p], lev.W[p], lev.Pres[p], lev.Lapl[p], lev.Num[p], edgeSpan(lev, p, lev.Diss[p]))
	})
	return x.exchange(parti.ScatterAdd, lev.SchedW, lev, parti.States(lev.Diss))
}

// residual computes R = Q - D (+ forcing if withForcing) into lev.Res at
// owned vertices, from ghosts and pressures refreshW has made current. The
// convective edge and boundary loops and, on a dissipation stage, pass 1
// run back to back and close with one scatter-add of everything they
// accumulated — one message per neighbour, not four; with diss false the
// dissipation is the one a previous stage left.
func (s *Solver) residual(x driver, lev *Level, withForcing, diss bool) error {
	sums := parti.States(lev.Conv)
	if diss {
		sums = parti.States(lev.Conv, lev.Lapl).And(parti.Floats(lev.Num, lev.Den))
	}
	each(x, func(p int) {
		euler.Convective(&s.P, lev.Edges[p], lev.ENorm[p], lev.BFaces[p], lev.W[p], lev.Pres[p], edgeSpan(lev, p, lev.Conv[p]))
		if diss {
			euler.DissPass1(lev.Edges[p], lev.W[p], lev.Pres[p], edgeSpan(lev, p, lev.Lapl[p]), lev.Num[p], lev.Den[p])
		}
	})
	if err := x.exchange(parti.ScatterAdd, lev.SchedW, lev, sums); err != nil {
		return err
	}
	if diss {
		if err := s.dissipation(x, lev); err != nil {
			return err
		}
	}
	each(x, func(p int) {
		var forcing []euler.State
		if withForcing {
			forcing = lev.Forcing[p]
		}
		euler.CombineResidual(owned(lev, p, lev.Res[p]), lev.Conv[p], lev.Diss[p], forcing)
	})
	return nil
}

// smooth applies the distributed implicit residual averaging to arr.
func (s *Solver) smooth(x driver, lev *Level, arr [][]euler.State) error {
	eps := s.P.EpsSmooth
	if eps == 0 || s.P.NSmooth == 0 {
		return nil
	}
	each(x, func(p int) { copy(owned(lev, p, lev.RHS[p]), arr[p]) })
	cur, next := arr, lev.Smooth
	for sweep := 0; sweep < s.P.NSmooth; sweep++ {
		if err := x.exchange(parti.Gather, lev.SchedW, lev, parti.States(cur)); err != nil {
			return err
		}
		cc, nn := cur, next
		each(x, func(p int) { euler.SmoothAccum(lev.Edges[p], cc[p], edgeSpan(lev, p, nn[p])) })
		if err := x.exchange(parti.ScatterAdd, lev.SchedW, lev, parti.States(next)); err != nil {
			return err
		}
		each(x, func(p int) { euler.SmoothCombine(lev.RHS[p], owned(lev, p, nn[p]), lev.Deg[p], eps) })
		cur, next = next, cur
	}
	if &cur[0] != &arr[0] {
		each(x, func(p int) { copy(owned(lev, p, arr[p]), cur[p]) })
	}
	return nil
}

// step advances level l by one five-stage time step and returns the
// first-stage residual norm.
func (s *Solver) step(x driver, l int) (float64, error) {
	lev := s.Levels[l]
	each(x, func(p int) { copy(owned(lev, p, lev.W0[p]), lev.W[p]) })
	if err := s.refreshW(x, lev); err != nil {
		return 0, err
	}
	if err := s.timeSteps(x, lev); err != nil {
		return 0, err
	}
	norm := 0.0
	for q, alpha := range s.P.Stages {
		if q > 0 {
			if err := s.refreshW(x, lev); err != nil {
				return 0, err
			}
		}
		if err := s.residual(x, lev, l > 0, q < euler.DissipStages); err != nil {
			return 0, err
		}
		if q == 0 {
			// Per-processor partials of the engine-wide blocked reduction
			// (euler.NormBlock), summed in processor order, so that a
			// one-processor solve reproduces the sequential norm bitwise.
			each(x, func(p int) { s.partial[p] = euler.ResidualNormSq(lev.Res[p], lev.Vol[p], lev.Dist.Count(p)) })
			sum, err := x.sum(s.partial)
			if err != nil {
				return 0, err
			}
			norm = math.Sqrt(sum / float64(lev.M.NV()))
		}
		if err := s.smooth(x, lev, lev.Res); err != nil {
			return 0, err
		}
		each(x, func(p int) {
			s.P.StageUpdate(owned(lev, p, lev.W[p]), lev.W0[p], lev.Res[p], lev.Dt[p], lev.Vol[p], alpha)
		})
	}
	return norm, nil
}

// cycle performs one FAS multigrid cycle from level l down (a plain time
// step on the coarsest level) and returns level l's residual norm.
func (s *Solver) cycle(x driver, l int) (float64, error) {
	norm, err := s.step(x, l)
	if err != nil || l == len(s.Levels)-1 {
		return norm, err
	}
	lev, next := s.Levels[l], s.Levels[l+1]

	// Residual of the post-step solution (with forcing on coarse levels).
	if err := s.refreshW(x, lev); err != nil {
		return 0, err
	}
	if err := s.residual(x, lev, l > 0, true); err != nil {
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
	if err := x.exchange(parti.Gather, lev.SchedW, lev, parti.States(lev.W)); err != nil {
		return 0, err
	}
	if lev.SchedCoarse != nil {
		if err := x.exchange(parti.Gather, lev.SchedCoarse, lev, parti.States(lev.W)); err != nil {
			return 0, err
		}
	}
	if err := x.exchange(parti.Gather, next.SchedFine, lev, parti.States(lev.W)); err != nil {
		return 0, err
	}
	each(x, func(p int) {
		next.Restrict[p].Interp(lev.W[p], next.W[p])
		multigrid.RepairSave(&s.P, next.W[p], next.WSaved[p], 0, next.Dist.Count(p))
	})

	// Restrict residuals conservatively. The prolongation addresses reuse
	// coarse ghost slots already allocated by the coarse edge-loop
	// schedule where possible (incremental schedules); accumulated
	// contributions return to their owners through both schedules.
	each(x, func(p int) { next.Prolong[p].ScatterTranspose(lev.Res[p], next.Forcing[p]) })
	if err := x.exchange(parti.ScatterAdd, next.SchedCoarse, next, parti.States(next.Forcing)); err != nil {
		return 0, err
	}
	if err := x.exchange(parti.ScatterAdd, next.SchedW, next, parti.States(next.Forcing)); err != nil {
		return 0, err
	}

	// Forcing P = R' - R(w').
	if err := s.refreshW(x, next); err != nil {
		return 0, err
	}
	if err := s.residual(x, next, false, true); err != nil {
		return 0, err
	}
	each(x, func(p int) { multigrid.Subtract(next.Forcing[p], next.Res[p], 0, next.Dist.Count(p)) })

	visits := s.Gamma
	if l+1 == len(s.Levels)-1 {
		visits = 1
	}
	for v := 0; v < visits; v++ {
		if _, err := s.cycle(x, l+1); err != nil {
			return 0, err
		}
	}

	// Correction: coarse delta, ghost refresh through both schedules,
	// interpolate to fine, smooth, apply.
	each(x, func(p int) { multigrid.Delta(next.Corr[p], next.W[p], next.WSaved[p], 0, next.Dist.Count(p)) })
	if err := x.exchange(parti.Gather, next.SchedCoarse, next, parti.States(next.Corr)); err != nil {
		return 0, err
	}
	if err := x.exchange(parti.Gather, next.SchedW, next, parti.States(next.Corr)); err != nil {
		return 0, err
	}
	each(x, func(p int) { next.Prolong[p].Interp(next.Corr[p], lev.Corr[p]) })
	if err := s.smooth(x, lev, lev.Corr); err != nil {
		return 0, err
	}
	each(x, func(p int) { multigrid.ApplyCorrection(&s.P, lev.W[p], lev.Corr[p], 0, lev.Dist.Count(p)) })
	return norm, nil
}
