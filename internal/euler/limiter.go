package euler

// This file is the invariant-domain safeguard for shock-capturing runs: a
// clip-free convex limiter applied to every Runge-Kutta stage update, in
// the spirit of the convex limiting of Maier & Kronbichler
// (arXiv:2007.00094) with the a-posteriori blending framing of Abgrall et
// al. (arXiv:1806.03986). The admissible set
//
//	A = { w : rho(w) >= MinDensity, p(w) >= MinPressure }
//
// is convex (density is linear and pressure is concave in the conserved
// variables on rho > 0), so for an admissible stage-0 state w0 the
// admissible parameters theta of the segment w0 + theta*(cand - w0) form an
// interval [0, theta_max]. LimitUpdate finds theta_max by bisection on the
// exact admissibility predicate Guard and returns the limited state — the
// largest fraction of the high-order update that keeps the vertex in A.
// Nothing is ever clipped: density and pressure are never overwritten, the
// update direction is preserved, and an admissible candidate passes through
// bitwise unchanged.
//
// Compared with the all-or-nothing positivity guard (revert the whole
// vertex to w0), the limiter keeps the admissible fraction of the update,
// so strong startup transients — the Sod diaphragm release, the impulsive
// start of a supersonic wedge — keep making progress at the limited
// vertices instead of freezing them for the stage. Near convergence, and on
// smooth flows, candidates are admissible and the limiter is the identity.

// limitIters is the bisection depth of LimitUpdate: theta is resolved to
// 2^-limitIters, far below the floating-point noise of the update itself.
const limitIters = 60

// LimitUpdate returns the admissible convex combination
// w0 + theta*(cand - w0) with the largest theta in [0, 1]. If cand is
// already admissible it is returned unchanged (the limiter is the identity
// on admissible updates). w0 must be admissible — stage-0 states are, by
// induction from an admissible initial condition; a non-admissible w0 is
// returned as-is, matching the guard's revert semantics.
func (p *Params) LimitUpdate(w0, cand State) State {
	if p.Guard(cand) {
		return cand
	}
	if !p.Guard(w0) {
		return w0
	}
	var d State
	for k := 0; k < NVar; k++ {
		d[k] = cand[k] - w0[k]
	}
	// Bisect on the exact predicate: lo is always admissible (theta = 0 is
	// w0), hi never is. Every accepted lo was tested through Guard, so the
	// returned state is admissible by construction — no epsilon margins.
	lo, hi := 0.0, 1.0
	var s State
	for it := 0; it < limitIters; it++ {
		mid := 0.5 * (lo + hi)
		for k := 0; k < NVar; k++ {
			s[k] = w0[k] + mid*d[k]
		}
		if p.Guard(s) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return w0
	}
	for k := 0; k < NVar; k++ {
		s[k] = w0[k] + lo*d[k]
	}
	return s
}

// admitUpdate is the single admission point of every stage update — the
// reference Params.StageUpdate (sequential and distributed engines) and
// the SoA kernels (UpdateFinalSoAKernel, and UpdateNextSoAKernel through
// admitWithPressure) — so all engines perform literally the same
// arithmetic and stay bitwise conformant. With ConvexLimit unset it
// reproduces the historical guard exactly: revert the whole vertex for the
// stage when the candidate leaves the admissible set.
func (p *Params) admitUpdate(w0, cand State) State {
	if p.ConvexLimit {
		return p.LimitUpdate(w0, cand)
	}
	if !p.Guard(cand) {
		return w0
	}
	return cand
}

// admitWithPressure is admitUpdate for a candidate whose pressure pc the
// caller has formed: an admissible candidate is passed by guardPressure on
// pc, as admitUpdate passes it by Guard, and anything else goes through
// admitUpdate. admitted reports that the result is cand itself, whose
// pressure is pc.
func (p *Params) admitWithPressure(w0, cand State, pc float64) (st State, admitted bool) {
	if p.guardPressure(cand, pc) {
		return cand, true
	}
	return p.admitUpdate(w0, cand), false
}
