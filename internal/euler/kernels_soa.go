package euler

import (
	"math"

	"eul3d/internal/mesh"
)

// The SoA form of the operator: range kernels over explicit edge/face index
// subsets and vertex ranges, on StateSoA blocks instead of []State. The
// shared-memory executor (package smsolver) calls them per color group and
// worker chunk — the Cray autotasking decomposition of Section 3.1; within a
// color group no two edges touch the same vertex, so the kernels are
// race-free. The distributed solver (package dmsolver) calls the edge, face
// and residual kernels once per simulated processor, over all of that
// partition's local edges or faces (NewViewDisc), with the PARTI exchanges
// between calls. Both convert at the step or stage boundaries, so every
// public interface keeps []State. This is the second and last statement of
// the scheme's arithmetic; the first is the reference operator in ops.go,
// which the sequential engine drives and whose vertex functions and
// smoother the distributed one still calls.
//
// One sweep body, parts: what the scheme accumulates over edges from w alone
// (spectral radii, convective flux, the dissipation's Laplacian and sensor
// sums) is stated once, in EdgeSweepSoAKernel, which gathers both ends of an
// edge once and performs whichever SweepParts the caller selected, each into
// its own accumulators. Under one coloring any subset is legal in one pass:
// the engine makes one pass per stage, and the one-part kernels are calls of
// the same body. BFaceSweepSoAKernel is the same for a boundary face's two
// parts. Dissipation pass 2 needs pass 1 complete, so it stays its own loop.
//
// Vertex terms: 1/rho and the sound speed, which the reference operator
// re-derives at both ends of every edge (FluxDotN, SpectralRadius; ~13 edges
// meet at a vertex), are kept per vertex beside the pressure. setVertexTerms
// writes all three from exactly the kernels that write a solution block
// (StepInit, ResInit, UpdateNext), so no sweep can read a stale one, and the
// edge loops are division-free with one square root (|n|) per edge.
//
// Bitwise contract: each kernel performs the exact floating-point operations
// of the reference operator, in the same order per (vertex, component)
// accumulator slot (TestSoAKernelsBitwiseMatchReference). A hoisted term is
// the reference's own subexpression — 1/w[0], math.Sqrt(g.Gamma*p*rinv) —
// rounded once per vertex to the bits it had per edge end; the flux and
// spectral-radius lines mirror FluxDotN and SpectralRadius term for term;
// fusing parts leaves every slot the same additions in the same edge order.
//
// Performance note: every kernel hoists the component slices into locals
// (indexing Comp[k] per edge reloads a slice header per component) and
// unrolls the component dimension. The edge loops gather into scalar locals,
// not State{...} temporaries for FluxDotN/SpectralRadius: Go keeps arrays
// longer than one element on the stack, a store and a reload per component,
// and SpectralRadius, past the inlining budget, is a call per edge.

// NewViewDisc returns a discretization for running the edge, face and
// residual kernels over a view of a mesh: m lists the edges with their dual
// normals and the boundary faces of one part of it in a local numbering of
// nv vertices, and need carry no coordinates (no kernel reads X). This is
// what the distributed solver builds per simulated processor, nv being its
// [owned | edge ghosts] span. The vertex terms and the accumulator scratch
// are sized nv; there are no degrees and no time steps, so the kernels that
// read those (SmoothCombineSoAKernel, DtRangeKernel, the update kernels) are
// the caller's to replace.
func NewViewDisc(m *mesh.Mesh, p Params, nv int) *Disc {
	return &Disc{
		M: m, P: p,
		pres:   make([]float64, nv),
		rinv:   make([]float64, nv),
		snd:    make([]float64, nv),
		lam:    make([]float64, nv),
		sensor: make([]float64, nv),
		den:    make([]float64, nv),
	}
}

// Scratch accessors for the executors that drive the kernels themselves
// (the pooled engine, the distributed solver) but accumulate into this
// discretization's float workspace.

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

// setVertexTerms stores vertex i's pressure p, 1/rho and sound speed, each
// the reference operator's expression; every kernel that writes wS calls it.
func (d *Disc) setVertexTerms(i int, rho, p float64) {
	ri := 1 / rho
	d.pres[i], d.rinv[i], d.snd[i] = p, ri, math.Sqrt(d.P.Gas.Gamma*p*ri)
}

// StepInitSoAKernel fuses the time-step preamble for vertices [lo,hi):
// load w into the SoA solution block and the stage-0 snapshot, refresh the
// vertex terms, and reset the spectral-radius accumulator.
func (d *Disc) StepInitSoAKernel(w []State, wS, w0S *StateSoA, lo, hi int) {
	g := d.P.Gas
	s0, s1, s2, s3, s4 := wS.Comp[0], wS.Comp[1], wS.Comp[2], wS.Comp[3], wS.Comp[4]
	z0, z1, z2, z3, z4 := w0S.Comp[0], w0S.Comp[1], w0S.Comp[2], w0S.Comp[3], w0S.Comp[4]
	for i := lo; i < hi; i++ {
		st := w[i]
		s0[i], s1[i], s2[i], s3[i], s4[i] = st[0], st[1], st[2], st[3], st[4]
		z0[i], z1[i], z2[i], z3[i], z4[i] = st[0], st[1], st[2], st[3], st[4]
		d.setVertexTerms(i, st[0], g.Pressure(st))
		d.lam[i] = 0
	}
}

// ResInitSoAKernel loads w into the SoA solution block and refreshes the
// vertex terms for vertices [lo,hi) (standalone-residual preamble).
func (d *Disc) ResInitSoAKernel(w []State, wS *StateSoA, lo, hi int) {
	g := d.P.Gas
	s0, s1, s2, s3, s4 := wS.Comp[0], wS.Comp[1], wS.Comp[2], wS.Comp[3], wS.Comp[4]
	for i := lo; i < hi; i++ {
		st := w[i]
		s0[i], s1[i], s2[i], s3[i], s4[i] = st[0], st[1], st[2], st[3], st[4]
		d.setVertexTerms(i, st[0], g.Pressure(st))
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

// SweepParts selects what one pass of the edge or face sweep accumulates.
type SweepParts uint8

const (
	PartLam   SweepParts = 1 << iota // spectral radii into lam
	PartConv                         // convective flux (boundary closure) into convS
	PartDiss1                        // undivided Laplacian and sensor sums into laplS, num, den
)

// EdgeSweepSoAKernel is the edge loop of the scheme's first pass: it gathers
// both ends of each listed edge once and accumulates the selected parts.
// Accumulators of unselected parts are not touched and may be nil.
func (d *Disc) EdgeSweepSoAKernel(parts SweepParts, wS, convS, laplS *StateSoA, lam, num, den []float64, edges []int32) {
	m := d.M
	pres, rinv, snd := d.pres, d.rinv, d.snd
	w0, w1, w2, w3, w4 := wS.Comp[0], wS.Comp[1], wS.Comp[2], wS.Comp[3], wS.Comp[4]
	var c0, c1, c2, c3, c4, l0, l1, l2, l3, l4 []float64
	if parts&PartConv != 0 {
		c0, c1, c2, c3, c4 = convS.Comp[0], convS.Comp[1], convS.Comp[2], convS.Comp[3], convS.Comp[4]
	}
	if parts&PartDiss1 != 0 {
		l0, l1, l2, l3, l4 = laplS.Comp[0], laplS.Comp[1], laplS.Comp[2], laplS.Comp[3], laplS.Comp[4]
	}
	for _, e := range edges {
		ed := m.Edges[e]
		i, j := ed[0], ed[1]
		a0, a1, a2, a3, a4 := w0[i], w1[i], w2[i], w3[i], w4[i]
		b0, b1, b2, b3, b4 := w0[j], w1[j], w2[j], w3[j], w4[j]
		pi, pj := pres[i], pres[j]
		if parts&(PartLam|PartConv) != 0 {
			n := m.EdgeNorm[e]
			ri, rj := rinv[i], rinv[j]
			if parts&PartLam != 0 {
				u := 0.5 * (a1*ri + b1*rj) // SpectralRadius on the vertex terms
				v := 0.5 * (a2*ri + b2*rj)
				ww := 0.5 * (a3*ri + b3*rj)
				lamE := math.Abs(u*n.X+v*n.Y+ww*n.Z) + 0.5*(snd[i]+snd[j])*n.Norm()
				lam[i] += lamE
				lam[j] += lamE
			}
			if parts&PartConv != 0 {
				// 0.5*(FluxDotN(wi) + FluxDotN(wj)), term for term.
				ui := (a1*n.X + a2*n.Y + a3*n.Z) * ri
				uj := (b1*n.X + b2*n.Y + b3*n.Z) * rj
				f0 := 0.5 * (a0*ui + b0*uj)
				f1 := 0.5 * ((a1*ui + pi*n.X) + (b1*uj + pj*n.X))
				f2 := 0.5 * ((a2*ui + pi*n.Y) + (b2*uj + pj*n.Y))
				f3 := 0.5 * ((a3*ui + pi*n.Z) + (b3*uj + pj*n.Z))
				f4 := 0.5 * ((a4+pi)*ui + (b4+pj)*uj)
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
		if parts&PartDiss1 != 0 {
			l0[i] += b0 - a0
			l0[j] -= b0 - a0
			l1[i] += b1 - a1
			l1[j] -= b1 - a1
			l2[i] += b2 - a2
			l2[j] -= b2 - a2
			l3[i] += b3 - a3
			l3[j] -= b3 - a3
			l4[i] += b4 - a4
			l4[j] -= b4 - a4
			dp := pj - pi
			num[i] += dp
			num[j] -= dp
			sp := pj + pi
			den[i] += sp
			den[j] += sp
		}
	}
}

// LambdaEdgesSoAKernel is the edge sweep's PartLam alone: spectral radii into lam.
func (d *Disc) LambdaEdgesSoAKernel(wS *StateSoA, lam []float64, edges []int32) {
	d.EdgeSweepSoAKernel(PartLam, wS, nil, nil, lam, nil, nil, edges)
}

// ConvectiveEdgesSoAKernel is the edge sweep's PartConv alone: fluxes into convS.
func (d *Disc) ConvectiveEdgesSoAKernel(wS, convS *StateSoA, edges []int32) {
	d.EdgeSweepSoAKernel(PartConv, wS, convS, nil, nil, nil, nil, edges)
}

// DissPass1SoAKernel is the edge sweep's PartDiss1 alone: the undivided
// Laplacian into laplS and the pressure-sensor sums into num and den.
func (d *Disc) DissPass1SoAKernel(wS, laplS *StateSoA, num, den []float64, edges []int32) {
	d.EdgeSweepSoAKernel(PartDiss1, wS, nil, laplS, nil, num, den, edges)
}

// DissPass2SoAKernel accumulates the blended dissipative flux of the
// listed edges into dissS, given the per-vertex switch nu and Laplacian.
func (d *Disc) DissPass2SoAKernel(wS, laplS, dissS *StateSoA, nu []float64, edges []int32) {
	m := d.M
	k2, k4 := d.P.K2, d.P.K4
	rinv, snd := d.rinv, d.snd
	w0, w1, w2, w3, w4 := wS.Comp[0], wS.Comp[1], wS.Comp[2], wS.Comp[3], wS.Comp[4]
	l0, l1, l2, l3, l4 := laplS.Comp[0], laplS.Comp[1], laplS.Comp[2], laplS.Comp[3], laplS.Comp[4]
	s0, s1, s2, s3, s4 := dissS.Comp[0], dissS.Comp[1], dissS.Comp[2], dissS.Comp[3], dissS.Comp[4]
	for _, e := range edges {
		ed := m.Edges[e]
		i, j := ed[0], ed[1]
		n := m.EdgeNorm[e]
		ri, rj := rinv[i], rinv[j]
		u := 0.5 * (w1[i]*ri + w1[j]*rj) // SpectralRadius, as in the edge sweep
		v := 0.5 * (w2[i]*ri + w2[j]*rj)
		ww := 0.5 * (w3[i]*ri + w3[j]*rj)
		lamE := math.Abs(u*n.X+v*n.Y+ww*n.Z) + 0.5*(snd[i]+snd[j])*n.Norm()
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

// BFaceSweepSoAKernel is the one boundary-face loop: the face spectral
// radii into lam (PartLam) and the boundary closure into convS (PartConv),
// both lumped onto the face's three vertices, so one coloring covers both.
func (d *Disc) BFaceSweepSoAKernel(parts SweepParts, wS, convS *StateSoA, lam []float64, faces []int32) {
	m := d.M
	g := d.P.Gas
	pres, rinv, snd := d.pres, d.rinv, d.snd
	w0, w1, w2, w3, w4 := wS.Comp[0], wS.Comp[1], wS.Comp[2], wS.Comp[3], wS.Comp[4]
	var c0, c1, c2, c3, c4 []float64
	if parts&PartConv != 0 {
		c0, c1, c2, c3, c4 = convS.Comp[0], convS.Comp[1], convS.Comp[2], convS.Comp[3], convS.Comp[4]
	}
	for _, bi := range faces {
		f := &m.BFaces[bi]
		n := f.Normal
		a, b, c := f.V[0], f.V[1], f.V[2]
		if parts&PartLam != 0 {
			nn := n.Norm()
			for _, v := range f.V {
				un := (w1[v]*n.X + w2[v]*n.Y + w3[v]*n.Z) * rinv[v]
				lam[v] += (math.Abs(un) + snd[v]*nn) / 3
			}
		}
		if parts&PartConv == 0 {
			continue
		}
		var flux State
		switch f.Kind {
		case mesh.Wall, mesh.Symmetry:
			p := (pres[a] + pres[b] + pres[c]) / 3
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

// LambdaBFacesSoAKernel is the face sweep's PartLam alone: face radii into lam.
func (d *Disc) LambdaBFacesSoAKernel(wS *StateSoA, lam []float64, faces []int32) {
	d.BFaceSweepSoAKernel(PartLam, wS, nil, lam, faces)
}

// BoundaryFluxSoAKernel is the face sweep's PartConv alone: closure into convS.
func (d *Disc) BoundaryFluxSoAKernel(wS, convS *StateSoA, faces []int32) {
	d.BFaceSweepSoAKernel(PartConv, wS, convS, nil, faces)
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
// vertex terms from the updated state in the same sweep.
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
		d.setVertexTerms(i, cand[0], g.Pressure(cand))
	}
}
