package dmsolver

import (
	"math"

	"eul3d/internal/euler"
	"eul3d/internal/multigrid"
	"eul3d/internal/parti"
)

// This file is the distributed solver's program: the time step, the
// residual, the dissipation passes, the residual averaging and the FAS
// cycle's restriction and correction, each stated once as the sequence of
// per-processor compute phases and PARTI exchanges the paper's node program
// runs; multigrid.Cycle orders the cycle's pieces, as it does every
// engine's. It is written against a driver (driver.go), one worker of the
// executor, which decides the two things the mapping onto workers owns —
// which processors a compute phase runs on here, and how an exchange
// completes — and it branches only on Params, the level count and Gamma,
// never on the processor, so every worker walks the same exchange plan.
//
// The phases hold no arithmetic of their own. An edge or boundary-face
// loop is the kernel the pooled engine runs per worker (euler's
// kernels_soa.go), here over all of processor p's local edges or faces and
// its whole local range, on p's arrays over [owned | edge ghosts] viewed as
// blocks (euler.Block); a
// vertex sweep hands the owned prefix [0, Dist.Count(p)) of p's arrays to
// the function the sequential engine runs over the whole mesh — euler's
// reference vertex functions, and
// for the inter-grid pieces multigrid's TransferOp and FAS range functions.
// The smoother is the pooled engine's gather sweep over the owned rows.

// owned returns processor p's owned prefix of a local array.
func owned(lev *Level, p int, a []euler.State) []euler.State { return a[:lev.Dist.Count(p)] }

// each runs one compute phase on every processor of x's block.
func each(x driver, phase func(p int)) {
	lo, hi := x.procs()
	for p := lo; p < hi; p++ {
		phase(p)
	}
}

// refreshW gathers level lev's flow-variable ghosts through sch — SchedW,
// the ghosts the sweeps read, or a merged schedule that contains it — and
// recomputes the vertex terms (p, 1/rho, c) of W, which the sweeps read as
// their solution block, over [owned | edge ghosts].
func (s *Solver) refreshW(x driver, lev *Level, sch *parti.Schedule) error {
	if err := x.exchange(parti.Gather, sch, lev, parti.States(lev.W)); err != nil {
		return err
	}
	each(x, func(p int) { lev.disc[p].ResInitSoAKernel(lev.W[p], euler.Block(&lev.W[p]), 0, lev.EdgeSpan[p]) })
	return nil
}

// dissipation finishes D(w) into lev.diss from pass-1 sums complete at
// their owners: the shock switch, the re-gather of Laplacian and switch in
// one exchange, then pass 2 with its closing scatter-add — the
// consecutive-loop structure that motivates the paper's incremental
// schedules.
func (s *Solver) dissipation(x driver, lev *Level) error {
	each(x, func(p int) {
		n := lev.Dist.Count(p)
		euler.ShockSwitch(lev.Num[p][:n], lev.Den[p][:n])
	})
	if err := x.exchange(parti.Gather, lev.SchedW, lev, parti.States(lev.lapl).And(parti.Floats(lev.Num))); err != nil {
		return err
	}
	each(x, func(p int) {
		lev.disc[p].Diss2SweepSoAKernel(euler.Block(&lev.W[p]), euler.Block(&lev.lapl[p]), euler.Block(&lev.diss[p]), lev.Num[p], lev.ident[:len(lev.Edges[p])], 0, lev.EdgeSpan[p])
	})
	return x.exchange(parti.ScatterAdd, lev.SchedW, lev, parti.States(lev.diss))
}

// residual computes R = Q - D (+ forcing if withForcing) into lev.Res at
// owned vertices, from the W and vertex terms refreshW has made current. One edge sweep and one face sweep accumulate everything the
// stage needs of w — the convective flux always, pass 1 of the dissipation
// when diss is set, the spectral radii when lam is (only ever on a
// dissipation stage) — and one scatter-add closes them: one message per
// neighbour, not five. With diss false the dissipation is the one a
// previous stage left.
func (s *Solver) residual(x driver, lev *Level, withForcing, diss, lam bool) error {
	parts, sums := euler.PartConv, parti.States(lev.Conv)
	if diss {
		parts, sums = parts|euler.PartDiss1, parti.States(lev.Conv, lev.lapl).And(parti.Floats(lev.Num, lev.Den))
	}
	if lam {
		parts, sums = parts|euler.PartLam, sums.And(parti.Floats(lev.Num, lev.Den, lev.Lam))
	}
	each(x, func(p int) {
		d, w, conv, lapl := lev.disc[p], euler.Block(&lev.W[p]), euler.Block(&lev.Conv[p]), euler.Block(&lev.lapl[p])
		d.StageZeroSoAKernel(conv, euler.Block(&lev.diss[p]), lapl, diss, 0, lev.EdgeSpan[p])
		if lam {
			clear(lev.Lam[p])
		}
		span := lev.EdgeSpan[p]
		d.EdgeSweepSoAKernel(parts, w, conv, lapl, lev.Lam[p], lev.Num[p], lev.Den[p], lev.ident[:len(lev.Edges[p])], 0, span)
		d.BFaceSweepSoAKernel(parts&(euler.PartLam|euler.PartConv), w, conv, lev.Lam[p], lev.ident[:len(lev.BFaces[p])], 0, span)
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
		lev.disc[p].CombineResidualSoAKernel(euler.Block(&lev.Res[p]), euler.Block(&lev.Conv[p]), euler.Block(&lev.diss[p]), forcing, 0, lev.Dist.Count(p))
	})
	return nil
}

// smooth applies the distributed implicit residual averaging to arr, whose
// owned values must be current: per Jacobi sweep one gather of the iterate
// through SchedW + SchedHalo, which puts every neighbour of an owned vertex
// in a local slot, and one vertex loop that writes each owned slot of the
// next iterate once. Nothing is accumulated in a ghost slot, so nothing is
// scatter-added, and a vertex's sum is one flat row sum in global edge
// order: the sweep's result is bitwise the same on every partition.
func (s *Solver) smooth(x driver, lev *Level, arr [][]euler.State) error {
	eps := s.P.EpsSmooth
	if eps == 0 || s.P.NSmooth == 0 {
		return nil
	}
	each(x, func(p int) { copy(owned(lev, p, lev.RHS[p]), arr[p]) })
	cur, next := arr, lev.Smooth
	for sweep := 0; sweep < s.P.NSmooth; sweep++ {
		if err := x.exchange(parti.Gather, lev.smoothSched, lev, parti.States(cur)); err != nil {
			return err
		}
		cc, nn := cur, next
		each(x, func(p int) {
			euler.SmoothGatherSoAKernel(euler.Block(&lev.RHS[p]), euler.Block(&cc[p]), euler.Block(&nn[p]), lev.AdjStart[p], lev.Adj[p], eps, 0, lev.Dist.Count(p))
		})
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
	if err := s.refreshW(x, lev, lev.SchedW); err != nil {
		return 0, err
	}
	norm := 0.0
	for q, alpha := range s.P.Stages {
		if q > 0 {
			if err := s.refreshW(x, lev, lev.SchedW); err != nil {
				return 0, err
			}
		}
		// The spectral radii ride stage 0's sweep and scatter-add. In
		// time-accurate mode (GlobalDt) they feed nothing and are skipped, as
		// in the other engines.
		if err := s.residual(x, lev, l > 0, q < euler.DissipStages, q == 0 && s.P.GlobalDt <= 0); err != nil {
			return 0, err
		}
		if q == 0 {
			// The time steps, and the per-processor partials of the
			// engine-wide blocked reduction (euler.NormBlock), summed in
			// processor order, so that a one-processor solve reproduces the
			// sequential norm bitwise.
			each(x, func(p int) {
				n := lev.Dist.Count(p)
				s.P.TimeSteps(lev.Dt[p], lev.Vol[p], lev.Lam[p][:n])
				s.partial[p] = euler.ResidualNormSq(lev.Res[p], lev.Vol[p], n)
			})
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
// step on the coarsest level) on worker x and returns level l's residual
// norm: multigrid.Cycle over step, restrict and correct, bound to x in the
// hook slot of x's first processor. Workers that run at once never share a
// first processor, and the slot is the solver's, so binding x allocates
// nothing.
func (s *Solver) cycle(x driver, l int) (float64, error) {
	lo, _ := x.procs()
	h := &s.hooks[lo]
	*h = cycleHooks{s, x}
	return multigrid.Cycle(h, l, len(s.Levels), s.Gamma)
}

// cycleHooks is the program's three level pieces bound to one worker.
type cycleHooks struct {
	s *Solver
	x driver
}

func (h *cycleHooks) Step(l int) (float64, error) { return h.s.step(h.x, l) }
func (h *cycleHooks) Restrict(l int) error        { return h.s.restrict(h.x, l) }
func (h *cycleHooks) Correct(l int) error         { return h.s.correct(h.x, l) }

// restrict forms level l+1's FAS problem from level l's post-step solution:
// W restricted and repaired, the residual restricted, and the forcing.
func (s *Solver) restrict(x driver, l int) error {
	lev, next := s.Levels[l], s.Levels[l+1]

	// Residual of the post-step solution (with forcing on coarse levels). Its
	// flow-variable refresh is the last gather of W before the restriction
	// reads it, so it goes through every schedule that allocated a slot the
	// restriction may address — the edge-loop schedule, the halo, this
	// level's own prolongation schedule when it is itself a coarse level and
	// the incremental restriction schedule, each of which leaves out what the
	// ones before it ghost — merged into one.
	if err := s.refreshW(x, lev, lev.restrictSched); err != nil {
		return err
	}
	if err := s.residual(x, lev, l > 0, true, false); err != nil {
		return err
	}

	// Restrict flow variables onto coarse-owned vertices.
	each(x, func(p int) {
		next.Restrict[p].Interp(lev.W[p], next.W[p])
		multigrid.RepairSave(&s.P, next.W[p], next.WSaved[p], 0, next.Dist.Count(p))
	})

	// Restrict residuals conservatively. The prolongation addresses reuse
	// coarse ghost slots the coarse edge-loop and halo schedules allocated
	// where possible (incremental schedules), so the accumulated
	// contributions return to their owners through all three, merged.
	each(x, func(p int) { next.Prolong[p].ScatterTranspose(lev.Res[p], next.Forcing[p]) })
	if err := x.exchange(parti.ScatterAdd, next.transferSched, next, parti.States(next.Forcing)); err != nil {
		return err
	}

	// Forcing P = R' - R(w').
	if err := s.refreshW(x, next, next.SchedW); err != nil {
		return err
	}
	if err := s.residual(x, next, false, true, false); err != nil {
		return err
	}
	each(x, func(p int) { multigrid.Subtract(next.Forcing[p], next.Res[p], 0, next.Dist.Count(p)) })
	return nil
}

// correct applies level l+1's correction to level l: coarse delta, one ghost
// refresh through the merged transfer schedule, interpolate to fine, smooth,
// apply.
func (s *Solver) correct(x driver, l int) error {
	lev, next := s.Levels[l], s.Levels[l+1]
	each(x, func(p int) { multigrid.Delta(next.Corr[p], next.W[p], next.WSaved[p], 0, next.Dist.Count(p)) })
	if err := x.exchange(parti.Gather, next.transferSched, next, parti.States(next.Corr)); err != nil {
		return err
	}
	each(x, func(p int) { next.Prolong[p].Interp(next.Corr[p], lev.Corr[p]) })
	if err := s.smooth(x, lev, lev.Corr); err != nil {
		return err
	}
	each(x, func(p int) { multigrid.ApplyCorrection(&s.P, lev.W[p], lev.Corr[p], 0, lev.Dist.Count(p)) })
	return nil
}
