package euler

import (
	"math"

	"eul3d/internal/mesh"
)

// The SoA form of the operator: range kernels over explicit edge/face index
// subsets and vertex ranges, operating on StateSoA blocks instead of
// []State. The shared-memory parallel executor (package smsolver) calls
// them per color group and per worker chunk — the Cray autotasking
// decomposition of Section 3.1; within a color group no two edges touch the
// same vertex, so the kernels are race-free. The engine converts at the
// step boundaries so every public interface keeps []State. This is the
// second and last statement of the scheme's arithmetic; the first is the
// reference operator in ops.go, which the sequential and the distributed
// engine drive.
//
// Bitwise contract: each kernel performs the exact floating-point
// operations of the reference operator, in the same order per (vertex,
// component) accumulator slot (TestSoAKernelsBitwiseMatchReference). Where
// a full 5-vector is needed per element (flux evaluation, spectral radii,
// the stage-update admission) the state is gathered component-wise into a
// State value and fed to the *same* helper (FluxDotN, SpectralRadius,
// Params.admitUpdate), so the arithmetic is literally shared; the
// component-wise accumulation statements mirror the reference expressions
// term for term. Reordering across components is immaterial — each
// accumulator slot still sees the same additions in the same edge order.
//
// Performance note: every kernel hoists the five component slices into
// locals before its element loop and unrolls the component dimension.
// Indexing stateSoA.Comp[k] inside a per-edge loop reloads a slice header
// (and re-checks bounds) per component per edge; with the streams in
// locals the compiler keeps the five base pointers in registers and the
// inner body is straight-line loads, FMAs and stores — the layout the SoA
// conversion exists to expose.

// Scratch accessors for the parallel executor, which drives the kernels
// itself but accumulates into this discretization's float workspace.

// Lam returns the spectral-radius scratch array.
func (d *Disc) Lam() []float64 { return d.lam }

// Sensor returns the sensor numerator scratch (holds nu after NuRangeKernel).
func (d *Disc) Sensor() []float64 { return d.sensor }

// Den returns the sensor denominator scratch.
func (d *Disc) Den() []float64 { return d.den }

// NuRangeKernel converts the sensor sums to the shock switch for vertices
// [lo,hi): the reference ShockSwitch on a range (no layout to convert).
func (d *Disc) NuRangeKernel(num, den []float64, lo, hi int) {
	ShockSwitch(num[lo:hi], den[lo:hi])
}

// DtRangeKernel fills the time steps for vertices [lo,hi): the reference
// Params.TimeSteps on a range, GlobalDt included.
func (d *Disc) DtRangeKernel(lam []float64, lo, hi int) {
	d.P.TimeSteps(d.Dt[lo:hi], d.M.Vol[lo:hi], lam[lo:hi])
}

// StepInitSoAKernel fuses the time-step preamble for vertices [lo,hi):
// load w into the SoA solution block and the stage-0 snapshot, refresh the
// pressure, and reset the spectral-radius accumulator.
func (d *Disc) StepInitSoAKernel(w []State, wS, w0S *StateSoA, lo, hi int) {
	g := d.P.Gas
	s0, s1, s2, s3, s4 := wS.Comp[0], wS.Comp[1], wS.Comp[2], wS.Comp[3], wS.Comp[4]
	z0, z1, z2, z3, z4 := w0S.Comp[0], w0S.Comp[1], w0S.Comp[2], w0S.Comp[3], w0S.Comp[4]
	for i := lo; i < hi; i++ {
		st := w[i]
		s0[i], s1[i], s2[i], s3[i], s4[i] = st[0], st[1], st[2], st[3], st[4]
		z0[i], z1[i], z2[i], z3[i], z4[i] = st[0], st[1], st[2], st[3], st[4]
		d.pres[i] = g.Pressure(st)
		d.lam[i] = 0
	}
}

// ResInitSoAKernel loads w into the SoA solution block and refreshes the
// pressure for vertices [lo,hi) (standalone-residual preamble).
func (d *Disc) ResInitSoAKernel(w []State, wS *StateSoA, lo, hi int) {
	g := d.P.Gas
	s0, s1, s2, s3, s4 := wS.Comp[0], wS.Comp[1], wS.Comp[2], wS.Comp[3], wS.Comp[4]
	for i := lo; i < hi; i++ {
		st := w[i]
		s0[i], s1[i], s2[i], s3[i], s4[i] = st[0], st[1], st[2], st[3], st[4]
		d.pres[i] = g.Pressure(st)
	}
}

// StageZeroSoAKernel zeroes the SoA stage accumulators for vertices
// [lo,hi): the convective residual always, and the dissipation workspace
// (Laplacian, sensor sums, dissipative residual) when zeroDiss is set.
func (d *Disc) StageZeroSoAKernel(convS, dissS, laplS *StateSoA, zeroDiss bool, lo, hi int) {
	convS.ZeroRange(lo, hi)
	if !zeroDiss {
		return
	}
	laplS.ZeroRange(lo, hi)
	for i := lo; i < hi; i++ {
		d.sensor[i] = 0
		d.den[i] = 0
	}
	dissS.ZeroRange(lo, hi)
}

// ConvectiveEdgesSoAKernel accumulates the convective flux of the listed
// edges into convS. Pressures must be current.
func (d *Disc) ConvectiveEdgesSoAKernel(wS, convS *StateSoA, edges []int32) {
	m := d.M
	pres := d.pres
	w0, w1, w2, w3, w4 := wS.Comp[0], wS.Comp[1], wS.Comp[2], wS.Comp[3], wS.Comp[4]
	c0, c1, c2, c3, c4 := convS.Comp[0], convS.Comp[1], convS.Comp[2], convS.Comp[3], convS.Comp[4]
	for _, e := range edges {
		ed := m.Edges[e]
		i, j := ed[0], ed[1]
		n := m.EdgeNorm[e]
		fi := FluxDotN(State{w0[i], w1[i], w2[i], w3[i], w4[i]}, pres[i], n.X, n.Y, n.Z)
		fj := FluxDotN(State{w0[j], w1[j], w2[j], w3[j], w4[j]}, pres[j], n.X, n.Y, n.Z)
		f0 := 0.5 * (fi[0] + fj[0])
		f1 := 0.5 * (fi[1] + fj[1])
		f2 := 0.5 * (fi[2] + fj[2])
		f3 := 0.5 * (fi[3] + fj[3])
		f4 := 0.5 * (fi[4] + fj[4])
		c0[i] += f0
		c0[j] -= f0
		c1[i] += f1
		c1[j] -= f1
		c2[i] += f2
		c2[j] -= f2
		c3[i] += f3
		c3[j] -= f3
		c4[i] += f4
		c4[j] -= f4
	}
}

// BoundaryFluxSoAKernel accumulates the boundary closure of the listed
// boundary faces into convS.
func (d *Disc) BoundaryFluxSoAKernel(wS, convS *StateSoA, faces []int32) {
	m := d.M
	g := d.P.Gas
	w0, w1, w2, w3, w4 := wS.Comp[0], wS.Comp[1], wS.Comp[2], wS.Comp[3], wS.Comp[4]
	c0, c1, c2, c3, c4 := convS.Comp[0], convS.Comp[1], convS.Comp[2], convS.Comp[3], convS.Comp[4]
	for _, bi := range faces {
		f := &m.BFaces[bi]
		n := f.Normal
		a, b, c := f.V[0], f.V[1], f.V[2]
		var flux State
		switch f.Kind {
		case mesh.Wall, mesh.Symmetry:
			p := (d.pres[a] + d.pres[b] + d.pres[c]) / 3
			flux = State{0, p * n.X, p * n.Y, p * n.Z, 0}
		case mesh.FarField:
			wi := State{
				(w0[a] + w0[b] + w0[c]) / 3,
				(w1[a] + w1[b] + w1[c]) / 3,
				(w2[a] + w2[b] + w2[c]) / 3,
				(w3[a] + w3[b] + w3[c]) / 3,
				(w4[a] + w4[b] + w4[c]) / 3,
			}
			wb := FarFieldState(g, wi, d.P.Freestream, n)
			flux = FluxDotN(wb, g.Pressure(wb), n.X, n.Y, n.Z)
		}
		t0, t1, t2, t3, t4 := flux[0]/3, flux[1]/3, flux[2]/3, flux[3]/3, flux[4]/3
		c0[a] += t0
		c0[b] += t0
		c0[c] += t0
		c1[a] += t1
		c1[b] += t1
		c1[c] += t1
		c2[a] += t2
		c2[b] += t2
		c2[c] += t2
		c3[a] += t3
		c3[b] += t3
		c3[c] += t3
		c4[a] += t4
		c4[b] += t4
		c4[c] += t4
	}
}

// DissPass1SoAKernel accumulates the undivided Laplacian and pressure-
// sensor sums of the listed edges into laplS, num and den.
func (d *Disc) DissPass1SoAKernel(wS, laplS *StateSoA, num, den []float64, edges []int32) {
	m := d.M
	pres := d.pres
	w0, w1, w2, w3, w4 := wS.Comp[0], wS.Comp[1], wS.Comp[2], wS.Comp[3], wS.Comp[4]
	l0, l1, l2, l3, l4 := laplS.Comp[0], laplS.Comp[1], laplS.Comp[2], laplS.Comp[3], laplS.Comp[4]
	for _, e := range edges {
		ed := m.Edges[e]
		i, j := ed[0], ed[1]
		d0 := w0[j] - w0[i]
		d1 := w1[j] - w1[i]
		d2 := w2[j] - w2[i]
		d3 := w3[j] - w3[i]
		d4 := w4[j] - w4[i]
		l0[i] += d0
		l0[j] -= d0
		l1[i] += d1
		l1[j] -= d1
		l2[i] += d2
		l2[j] -= d2
		l3[i] += d3
		l3[j] -= d3
		l4[i] += d4
		l4[j] -= d4
		dp := pres[j] - pres[i]
		num[i] += dp
		num[j] -= dp
		sp := pres[j] + pres[i]
		den[i] += sp
		den[j] += sp
	}
}

// DissPass2SoAKernel accumulates the blended dissipative flux of the
// listed edges into dissS, given the per-vertex switch nu and Laplacian.
func (d *Disc) DissPass2SoAKernel(wS, laplS, dissS *StateSoA, nu []float64, edges []int32) {
	m := d.M
	k2, k4 := d.P.K2, d.P.K4
	gas := d.P.Gas
	pres := d.pres
	w0, w1, w2, w3, w4 := wS.Comp[0], wS.Comp[1], wS.Comp[2], wS.Comp[3], wS.Comp[4]
	l0, l1, l2, l3, l4 := laplS.Comp[0], laplS.Comp[1], laplS.Comp[2], laplS.Comp[3], laplS.Comp[4]
	s0, s1, s2, s3, s4 := dissS.Comp[0], dissS.Comp[1], dissS.Comp[2], dissS.Comp[3], dissS.Comp[4]
	for _, e := range edges {
		ed := m.Edges[e]
		i, j := ed[0], ed[1]
		wi := State{w0[i], w1[i], w2[i], w3[i], w4[i]}
		wj := State{w0[j], w1[j], w2[j], w3[j], w4[j]}
		lamE := SpectralRadius(gas, wi, wj, pres[i], pres[j], m.EdgeNorm[e])
		eps2 := k2 * math.Max(nu[i], nu[j])
		eps4 := math.Max(0, k4-eps2)
		f0 := lamE * (eps2*(w0[j]-w0[i]) - eps4*(l0[j]-l0[i]))
		f1 := lamE * (eps2*(w1[j]-w1[i]) - eps4*(l1[j]-l1[i]))
		f2 := lamE * (eps2*(w2[j]-w2[i]) - eps4*(l2[j]-l2[i]))
		f3 := lamE * (eps2*(w3[j]-w3[i]) - eps4*(l3[j]-l3[i]))
		f4 := lamE * (eps2*(w4[j]-w4[i]) - eps4*(l4[j]-l4[i]))
		s0[i] += f0
		s0[j] -= f0
		s1[i] += f1
		s1[j] -= f1
		s2[i] += f2
		s2[j] -= f2
		s3[i] += f3
		s3[j] -= f3
		s4[i] += f4
		s4[j] -= f4
	}
}

// LambdaEdgesSoAKernel accumulates the spectral radii of the listed edges
// into lam.
func (d *Disc) LambdaEdgesSoAKernel(wS *StateSoA, lam []float64, edges []int32) {
	m := d.M
	gas := d.P.Gas
	pres := d.pres
	w0, w1, w2, w3, w4 := wS.Comp[0], wS.Comp[1], wS.Comp[2], wS.Comp[3], wS.Comp[4]
	for _, e := range edges {
		ed := m.Edges[e]
		i, j := ed[0], ed[1]
		wi := State{w0[i], w1[i], w2[i], w3[i], w4[i]}
		wj := State{w0[j], w1[j], w2[j], w3[j], w4[j]}
		lamE := SpectralRadius(gas, wi, wj, pres[i], pres[j], m.EdgeNorm[e])
		lam[i] += lamE
		lam[j] += lamE
	}
}

// LambdaBFacesSoAKernel accumulates the boundary-face spectral radii of
// the listed faces into lam.
func (d *Disc) LambdaBFacesSoAKernel(wS *StateSoA, lam []float64, faces []int32) {
	m := d.M
	g := d.P.Gas
	rho, mx, my, mz := wS.Comp[0], wS.Comp[1], wS.Comp[2], wS.Comp[3]
	for _, bi := range faces {
		f := &m.BFaces[bi]
		n := f.Normal
		for _, v := range f.V {
			inv := 1 / rho[v]
			un := (mx[v]*n.X + my[v]*n.Y + mz[v]*n.Z) * inv
			c := math.Sqrt(g.Gamma * d.pres[v] * inv)
			lam[v] += (math.Abs(un) + c*n.Norm()) / 3
		}
	}
}

// SmoothGatherSoAKernel performs one whole Jacobi sweep of the residual
// averaging for vertices [lo,hi) in gather form: next[i] = (rhs[i] +
// eps*sum_j cur[j]) / (1 + eps*deg(i)), j running over row i of the CSR
// vertex adjacency (adjStart, adj). Every vertex writes only its own slot,
// so the sweep needs no coloring and no zeroing, and rhs and cur are only
// read. With the rows in the order an edge loop meets each vertex's edges,
// the additions into every sum are that loop's, in its order: the result
// is bitwise SmoothAccumSoAKernel over the edges followed by
// SmoothCombineSoAKernel, which remain as its oracle.
func SmoothGatherSoAKernel(rhsS, curS, nextS *StateSoA, adjStart, adj []int32, eps float64, lo, hi int) {
	r0, r1, r2, r3, r4 := rhsS.Comp[0], rhsS.Comp[1], rhsS.Comp[2], rhsS.Comp[3], rhsS.Comp[4]
	a0, a1, a2, a3, a4 := curS.Comp[0], curS.Comp[1], curS.Comp[2], curS.Comp[3], curS.Comp[4]
	n0, n1, n2, n3, n4 := nextS.Comp[0], nextS.Comp[1], nextS.Comp[2], nextS.Comp[3], nextS.Comp[4]
	for i := lo; i < hi; i++ {
		row := adj[adjStart[i]:adjStart[i+1]]
		var s0, s1, s2, s3, s4 float64
		for _, j := range row {
			s0 += a0[j]
			s1 += a1[j]
			s2 += a2[j]
			s3 += a3[j]
			s4 += a4[j]
		}
		inv := 1 / (1 + eps*float64(len(row)))
		n0[i] = (r0[i] + eps*s0) * inv
		n1[i] = (r1[i] + eps*s1) * inv
		n2[i] = (r2[i] + eps*s2) * inv
		n3[i] = (r3[i] + eps*s3) * inv
		n4[i] = (r4[i] + eps*s4) * inv
	}
}

// SmoothAccumSoAKernel accumulates neighbour sums of curS into nextS for
// the listed edges (the gather phase of one Jacobi sweep in edge form).
func (d *Disc) SmoothAccumSoAKernel(curS, nextS *StateSoA, edges []int32) {
	m := d.M
	a0, a1, a2, a3, a4 := curS.Comp[0], curS.Comp[1], curS.Comp[2], curS.Comp[3], curS.Comp[4]
	n0, n1, n2, n3, n4 := nextS.Comp[0], nextS.Comp[1], nextS.Comp[2], nextS.Comp[3], nextS.Comp[4]
	for _, e := range edges {
		ed := m.Edges[e]
		i, j := ed[0], ed[1]
		n0[i] += a0[j]
		n0[j] += a0[i]
		n1[i] += a1[j]
		n1[j] += a1[i]
		n2[i] += a2[j]
		n2[j] += a2[i]
		n3[i] += a3[j]
		n3[j] += a3[i]
		n4[i] += a4[j]
		n4[j] += a4[i]
	}
}

// SmoothCombineSoAKernel finishes one Jacobi sweep for vertices [lo,hi):
// next = (rhs + eps*next) / (1 + eps*deg).
func (d *Disc) SmoothCombineSoAKernel(rhsS, nextS *StateSoA, eps float64, lo, hi int) {
	deg := d.deg
	r0, r1, r2, r3, r4 := rhsS.Comp[0], rhsS.Comp[1], rhsS.Comp[2], rhsS.Comp[3], rhsS.Comp[4]
	n0, n1, n2, n3, n4 := nextS.Comp[0], nextS.Comp[1], nextS.Comp[2], nextS.Comp[3], nextS.Comp[4]
	for i := lo; i < hi; i++ {
		inv := 1 / (1 + eps*float64(deg[i]))
		n0[i] = (r0[i] + eps*n0[i]) * inv
		n1[i] = (r1[i] + eps*n1[i]) * inv
		n2[i] = (r2[i] + eps*n2[i]) * inv
		n3[i] = (r3[i] + eps*n3[i]) * inv
		n4[i] = (r4[i] + eps*n4[i]) * inv
	}
}

// CombineResidualSoAKernel forms resS = convS - dissS (+ forcing) for
// vertices [lo,hi). The forcing stays in its []State interface layout.
func (d *Disc) CombineResidualSoAKernel(resS, convS, dissS *StateSoA, forcing []State, lo, hi int) {
	r0, r1, r2, r3, r4 := resS.Comp[0], resS.Comp[1], resS.Comp[2], resS.Comp[3], resS.Comp[4]
	c0, c1, c2, c3, c4 := convS.Comp[0], convS.Comp[1], convS.Comp[2], convS.Comp[3], convS.Comp[4]
	s0, s1, s2, s3, s4 := dissS.Comp[0], dissS.Comp[1], dissS.Comp[2], dissS.Comp[3], dissS.Comp[4]
	if forcing == nil {
		for i := lo; i < hi; i++ {
			r0[i] = c0[i] - s0[i]
			r1[i] = c1[i] - s1[i]
			r2[i] = c2[i] - s2[i]
			r3[i] = c3[i] - s3[i]
			r4[i] = c4[i] - s4[i]
		}
		return
	}
	for i := lo; i < hi; i++ {
		fc := forcing[i]
		r0[i] = c0[i] - s0[i] + fc[0]
		r1[i] = c1[i] - s1[i] + fc[1]
		r2[i] = c2[i] - s2[i] + fc[2]
		r3[i] = c3[i] - s3[i] + fc[3]
		r4[i] = c4[i] - s4[i] + fc[4]
	}
}

// CombineResidualOutKernel forms res = convS - dissS (+ forcing) for
// vertices [lo,hi), scattering straight into the []State layout — the
// conversion shim of the standalone residual path, whose result feeds the
// AoS multigrid transfer operators.
func (d *Disc) CombineResidualOutKernel(res []State, convS, dissS *StateSoA, forcing []State, lo, hi int) {
	c0, c1, c2, c3, c4 := convS.Comp[0], convS.Comp[1], convS.Comp[2], convS.Comp[3], convS.Comp[4]
	s0, s1, s2, s3, s4 := dissS.Comp[0], dissS.Comp[1], dissS.Comp[2], dissS.Comp[3], dissS.Comp[4]
	for i := lo; i < hi; i++ {
		st := State{c0[i] - s0[i], c1[i] - s1[i], c2[i] - s2[i], c3[i] - s3[i], c4[i] - s4[i]}
		if forcing != nil {
			fc := forcing[i]
			st[0] += fc[0]
			st[1] += fc[1]
			st[2] += fc[2]
			st[3] += fc[3]
			st[4] += fc[4]
		}
		res[i] = st
	}
}

// UpdateFinalSoAKernel applies the last RK stage update for vertices
// [lo,hi), scattering the result straight into the []State solution:
// w = w0 - alpha*Dt/V * res.
func (d *Disc) UpdateFinalSoAKernel(w []State, w0S, resS *StateSoA, alpha float64, lo, hi int) {
	vol := d.M.Vol
	z0, z1, z2, z3, z4 := w0S.Comp[0], w0S.Comp[1], w0S.Comp[2], w0S.Comp[3], w0S.Comp[4]
	r0, r1, r2, r3, r4 := resS.Comp[0], resS.Comp[1], resS.Comp[2], resS.Comp[3], resS.Comp[4]
	for i := lo; i < hi; i++ {
		f := alpha * d.Dt[i] / vol[i]
		cand := State{z0[i] - f*r0[i], z1[i] - f*r1[i], z2[i] - f*r2[i], z3[i] - f*r3[i], z4[i] - f*r4[i]}
		w[i] = d.P.admitUpdate(State{z0[i], z1[i], z2[i], z3[i], z4[i]}, cand)
	}
}

// UpdateNextSoAKernel applies an intermediate RK stage update for vertices
// [lo,hi) into the SoA solution block and refreshes the next stage's
// pressure from the updated state in the same sweep.
func (d *Disc) UpdateNextSoAKernel(wS, w0S, resS *StateSoA, alpha float64, lo, hi int) {
	g := d.P.Gas
	vol := d.M.Vol
	s0, s1, s2, s3, s4 := wS.Comp[0], wS.Comp[1], wS.Comp[2], wS.Comp[3], wS.Comp[4]
	z0, z1, z2, z3, z4 := w0S.Comp[0], w0S.Comp[1], w0S.Comp[2], w0S.Comp[3], w0S.Comp[4]
	r0, r1, r2, r3, r4 := resS.Comp[0], resS.Comp[1], resS.Comp[2], resS.Comp[3], resS.Comp[4]
	for i := lo; i < hi; i++ {
		f := alpha * d.Dt[i] / vol[i]
		cand := State{z0[i] - f*r0[i], z1[i] - f*r1[i], z2[i] - f*r2[i], z3[i] - f*r3[i], z4[i] - f*r4[i]}
		cand = d.P.admitUpdate(State{z0[i], z1[i], z2[i], z3[i], z4[i]}, cand)
		s0[i], s1[i], s2[i], s3[i], s4[i] = cand[0], cand[1], cand[2], cand[3], cand[4]
		d.pres[i] = g.Pressure(cand)
	}
}
