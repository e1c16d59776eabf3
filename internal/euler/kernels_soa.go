package euler

import (
	"math"

	"eul3d/internal/mesh"
)

// The range form of the operator: kernels over explicit edge/face index
// lists and vertex ranges, on StateSoA blocks — one State record per
// vertex, the []State layout itself. The shared-memory executor (package
// smsolver) runs them owner-computes: each worker owns a contiguous vertex
// range, walks every edge or face that touches it in the mesh's order, and
// the sweeps take that ownership range [lo,hi) and store only into owned
// vertices — an edge cut by the ranges is computed by both its owners, each
// keeping its own end — so no two workers write one slot and every vertex
// receives its additions in the mesh's edge order. The distributed solver
// (package dmsolver) calls the edge, face and residual kernels once per
// simulated processor, over all of that partition's local edges or faces
// (NewViewDisc) and its whole local range, and the gather smoother over its
// owned rows, with the PARTI exchanges between calls. Both hand their
// []State arrays to the kernels as blocks (Block), so nothing is converted
// anywhere; the sequential engine is the pooled one at one worker. This is
// the second and last statement of the scheme's arithmetic; the first is
// the reference operator in ops.go, which Disc.Step, Disc.Residual and the
// serial multigrid drive, and whose vertex functions the distributed engine
// still calls. Its steps have two roles and no engine among them: the
// tests' oracle, and the serial references the benchmark times (cmd/bench,
// cmd/benchsm). The tables, the examples and the adaptive residual
// indicator run the engines.
//
// One sweep body, parts: what the scheme accumulates over edges from w alone
// (spectral radii, convective flux, the dissipation's Laplacian and sensor
// sums) is stated once, in EdgeSweepSoAKernel, which gathers both ends of an
// edge once and performs whichever SweepParts the caller selected, each into
// its own accumulators. Any subset is legal in one pass: the engine makes one
// pass per stage, and the one-part kernels are calls of the same body over
// the whole vertex range. BFaceSweepSoAKernel is the same for a boundary
// face's two parts. Dissipation pass 2 needs pass 1 complete, so it stays
// its own loop (Diss2SweepSoAKernel). The ownership range guards stores
// only, never arithmetic: a sweep computes every listed element's terms in
// full and keeps the ends it owns, so the owned slots' bits do not depend
// on the range. An unowned end's additions are pointed at a sink on the
// stack rather than branched around, which keeps the body one straight line
// (EXPERIMENTS.md, "Owner-computes sweeps").
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
// Performance note: an edge gathers each end as one record (&w[i], one
// bounds check, then five constant-index loads from one or two cache lines)
// and accumulates through &acc[i] the same way; five component streams cost
// up to five lines an end and lost on every sweep an engine runs, by a
// quarter to a half (EXPERIMENTS.md, "One record per vertex"). The
// component dimension stays unrolled into scalar locals, not State{...}
// temporaries for FluxDotN/SpectralRadius: Go keeps arrays longer than one
// element on the stack, a store and a reload per component, and
// SpectralRadius, past the inlining budget, is a call per edge.

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
// [lo,hi): the reference ShockSwitch on a range.
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
// copy w into the solution block and the stage-0 snapshot, refresh the
// vertex terms, and reset the spectral-radius accumulator. wS may be w
// itself (Block(&w)), as the pooled engine passes it.
func (d *Disc) StepInitSoAKernel(w []State, wS, w0S *StateSoA, lo, hi int) {
	g := d.P.Gas
	s, z := *wS, *w0S
	for i := lo; i < hi; i++ {
		st := w[i]
		s[i], z[i] = st, st
		d.setVertexTerms(i, st[0], g.Pressure(st))
		d.lam[i] = 0
	}
}

// ResInitSoAKernel copies w into the solution block and refreshes the
// vertex terms for vertices [lo,hi) (standalone-residual preamble); wS may
// be w itself.
func (d *Disc) ResInitSoAKernel(w []State, wS *StateSoA, lo, hi int) {
	g := d.P.Gas
	s := *wS
	for i := lo; i < hi; i++ {
		st := w[i]
		s[i] = st
		d.setVertexTerms(i, st[0], g.Pressure(st))
	}
}

// StageZeroSoAKernel zeroes the stage accumulators for vertices [lo,hi):
// the convective residual always, and the dissipation workspace
// (Laplacian, sensor sums, dissipative residual) when zeroDiss is set.
func (d *Disc) StageZeroSoAKernel(convS, dissS, laplS *StateSoA, zeroDiss bool, lo, hi int) {
	convS.ZeroRange(lo, hi)
	if !zeroDiss {
		return
	}
	laplS.ZeroRange(lo, hi)
	clear(d.sensor[lo:hi])
	clear(d.den[lo:hi])
	dissS.ZeroRange(lo, hi)
}

// SweepParts selects what one pass of the edge or face sweep accumulates.
type SweepParts uint8

const (
	PartLam   SweepParts = 1 << iota // spectral radii into lam
	PartConv                         // convective flux (boundary closure) into convS
	PartDiss1                        // undivided Laplacian and sensor sums into laplS, num, den
)

// owns reports whether vertex v lies in the ownership range [lo, lo+n).
func owns(v int32, lo int, n uint) bool { return uint(int(v)-lo) < n }

// EdgeSweepSoAKernel is the edge loop of the scheme's first pass: it gathers
// both ends of each listed edge once, computes the selected parts, and adds
// them into the ends inside the ownership range [lo,hi). Accumulators of
// unselected parts are not touched and may be nil.
func (d *Disc) EdgeSweepSoAKernel(parts SweepParts, wS, convS, laplS *StateSoA, lam, num, den []float64, edges []int32, lo, hi int) {
	m := d.M
	pres, rinv, snd := d.pres, d.rinv, d.snd
	w := *wS
	own := uint(hi - lo)
	var sink State // where the ends outside [lo,hi) add, never read
	var sinkF float64
	var conv, lapl StateSoA
	if parts&PartConv != 0 {
		conv = *convS
	}
	if parts&PartDiss1 != 0 {
		lapl = *laplS
	}
	for _, e := range edges {
		ed := m.Edges[e]
		i, j := ed[0], ed[1]
		wi, wj := &w[i], &w[j]
		a0, a1, a2, a3, a4 := wi[0], wi[1], wi[2], wi[3], wi[4]
		b0, b1, b2, b3, b4 := wj[0], wj[1], wj[2], wj[3], wj[4]
		pi, pj := pres[i], pres[j]
		if parts&(PartLam|PartConv) != 0 {
			n := m.EdgeNorm[e]
			ri, rj := rinv[i], rinv[j]
			if parts&PartLam != 0 {
				u := 0.5 * (a1*ri + b1*rj) // SpectralRadius on the vertex terms
				v := 0.5 * (a2*ri + b2*rj)
				ww := 0.5 * (a3*ri + b3*rj)
				lamE := math.Abs(u*n.X+v*n.Y+ww*n.Z) + 0.5*(snd[i]+snd[j])*n.Norm()
				li, lj := &lam[i], &lam[j]
				if !owns(i, lo, own) {
					li = &sinkF
				}
				if !owns(j, lo, own) {
					lj = &sinkF
				}
				*li += lamE
				*lj += lamE
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
				ci, cj := &conv[i], &conv[j]
				if !owns(i, lo, own) {
					ci = &sink
				}
				if !owns(j, lo, own) {
					cj = &sink
				}
				ci[0] += f0
				cj[0] -= f0
				ci[1] += f1
				cj[1] -= f1
				ci[2] += f2
				cj[2] -= f2
				ci[3] += f3
				cj[3] -= f3
				ci[4] += f4
				cj[4] -= f4
			}
		}
		if parts&PartDiss1 != 0 {
			li, lj := &lapl[i], &lapl[j]
			ni, nj, di, dj := &num[i], &num[j], &den[i], &den[j]
			if !owns(i, lo, own) {
				li, ni, di = &sink, &sinkF, &sinkF
			}
			if !owns(j, lo, own) {
				lj, nj, dj = &sink, &sinkF, &sinkF
			}
			li[0] += b0 - a0
			lj[0] -= b0 - a0
			li[1] += b1 - a1
			lj[1] -= b1 - a1
			li[2] += b2 - a2
			lj[2] -= b2 - a2
			li[3] += b3 - a3
			lj[3] -= b3 - a3
			li[4] += b4 - a4
			lj[4] -= b4 - a4
			dp := pj - pi
			*ni += dp
			*nj -= dp
			sp := pj + pi
			*di += sp
			*dj += sp
		}
	}
}

// LambdaEdgesSoAKernel is the edge sweep's PartLam alone, over every
// vertex: spectral radii into lam.
func (d *Disc) LambdaEdgesSoAKernel(wS *StateSoA, lam []float64, edges []int32) {
	d.EdgeSweepSoAKernel(PartLam, wS, nil, nil, lam, nil, nil, edges, 0, wS.Len())
}

// ConvectiveEdgesSoAKernel is the edge sweep's PartConv alone, over every
// vertex: fluxes into convS.
func (d *Disc) ConvectiveEdgesSoAKernel(wS, convS *StateSoA, edges []int32) {
	d.EdgeSweepSoAKernel(PartConv, wS, convS, nil, nil, nil, nil, edges, 0, wS.Len())
}

// DissPass1SoAKernel is the edge sweep's PartDiss1 alone, over every
// vertex: the undivided Laplacian into laplS and the pressure-sensor sums
// into num and den.
func (d *Disc) DissPass1SoAKernel(wS, laplS *StateSoA, num, den []float64, edges []int32) {
	d.EdgeSweepSoAKernel(PartDiss1, wS, nil, laplS, nil, num, den, edges, 0, wS.Len())
}

// Diss2SweepSoAKernel accumulates the blended dissipative flux of the
// listed edges into the ends of dissS inside the ownership range [lo,hi),
// given the per-vertex switch nu and Laplacian.
func (d *Disc) Diss2SweepSoAKernel(wS, laplS, dissS *StateSoA, nu []float64, edges []int32, lo, hi int) {
	m := d.M
	k2, k4 := d.P.K2, d.P.K4
	rinv, snd := d.rinv, d.snd
	w, lapl, diss := *wS, *laplS, *dissS
	own := uint(hi - lo)
	var sink State // where the ends outside [lo,hi) add, never read
	for _, e := range edges {
		ed := m.Edges[e]
		i, j := ed[0], ed[1]
		n := m.EdgeNorm[e]
		wi, wj := &w[i], &w[j]
		ri, rj := rinv[i], rinv[j]
		u := 0.5 * (wi[1]*ri + wj[1]*rj) // SpectralRadius, as in the edge sweep
		v := 0.5 * (wi[2]*ri + wj[2]*rj)
		ww := 0.5 * (wi[3]*ri + wj[3]*rj)
		lamE := math.Abs(u*n.X+v*n.Y+ww*n.Z) + 0.5*(snd[i]+snd[j])*n.Norm()
		// The builtin max inlines where math.Max is an assembly call; the
		// two agree on every input but NaN beside +Inf, non-finite either way.
		eps2 := k2 * max(nu[i], nu[j])
		eps4 := max(0, k4-eps2)
		li, lj := &lapl[i], &lapl[j]
		f0 := lamE * (eps2*(wj[0]-wi[0]) - eps4*(lj[0]-li[0]))
		f1 := lamE * (eps2*(wj[1]-wi[1]) - eps4*(lj[1]-li[1]))
		f2 := lamE * (eps2*(wj[2]-wi[2]) - eps4*(lj[2]-li[2]))
		f3 := lamE * (eps2*(wj[3]-wi[3]) - eps4*(lj[3]-li[3]))
		f4 := lamE * (eps2*(wj[4]-wi[4]) - eps4*(lj[4]-li[4]))
		si, sj := &diss[i], &diss[j]
		if !owns(i, lo, own) {
			si = &sink
		}
		if !owns(j, lo, own) {
			sj = &sink
		}
		si[0] += f0
		sj[0] -= f0
		si[1] += f1
		sj[1] -= f1
		si[2] += f2
		sj[2] -= f2
		si[3] += f3
		sj[3] -= f3
		si[4] += f4
		sj[4] -= f4
	}
}

// DissPass2SoAKernel is Diss2SweepSoAKernel over every vertex.
func (d *Disc) DissPass2SoAKernel(wS, laplS, dissS *StateSoA, nu []float64, edges []int32) {
	d.Diss2SweepSoAKernel(wS, laplS, dissS, nu, edges, 0, wS.Len())
}

// BFaceSweepSoAKernel is the one boundary-face loop: the face spectral
// radii into lam (PartLam) and the boundary closure into convS (PartConv),
// both lumped onto the face's three vertices and stored into those inside
// the ownership range [lo,hi).
func (d *Disc) BFaceSweepSoAKernel(parts SweepParts, wS, convS *StateSoA, lam []float64, faces []int32, lo, hi int) {
	m := d.M
	g := d.P.Gas
	pres, rinv, snd := d.pres, d.rinv, d.snd
	w := *wS
	own := uint(hi - lo)
	var sink State // where the vertices outside [lo,hi) add, never read
	var sinkF float64
	var conv StateSoA
	if parts&PartConv != 0 {
		conv = *convS
	}
	for _, bi := range faces {
		f := &m.BFaces[bi]
		n := f.Normal
		a, b, c := f.V[0], f.V[1], f.V[2]
		if parts&PartLam != 0 {
			nn := n.Norm()
			for _, v := range f.V {
				wv := &w[v]
				un := (wv[1]*n.X + wv[2]*n.Y + wv[3]*n.Z) * rinv[v]
				lv := &lam[v]
				if !owns(v, lo, own) {
					lv = &sinkF
				}
				*lv += (math.Abs(un) + snd[v]*nn) / 3
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
			wa, wb, wc := &w[a], &w[b], &w[c]
			var wi State
			for k := range wi {
				wi[k] = (wa[k] + wb[k] + wc[k]) / 3
			}
			wf := FarFieldState(g, wi, d.P.Freestream, n)
			flux = FluxDotN(wf, g.Pressure(wf), n.X, n.Y, n.Z)
		}
		ca, cb, cc := &conv[a], &conv[b], &conv[c]
		if !owns(a, lo, own) {
			ca = &sink
		}
		if !owns(b, lo, own) {
			cb = &sink
		}
		if !owns(c, lo, own) {
			cc = &sink
		}
		for k, fk := range flux {
			t := fk / 3
			ca[k] += t
			cb[k] += t
			cc[k] += t
		}
	}
}

// LambdaBFacesSoAKernel is the face sweep's PartLam alone, over every
// vertex: face radii into lam.
func (d *Disc) LambdaBFacesSoAKernel(wS *StateSoA, lam []float64, faces []int32) {
	d.BFaceSweepSoAKernel(PartLam, wS, nil, lam, faces, 0, wS.Len())
}

// BoundaryFluxSoAKernel is the face sweep's PartConv alone, over every
// vertex: closure into convS.
func (d *Disc) BoundaryFluxSoAKernel(wS, convS *StateSoA, faces []int32) {
	d.BFaceSweepSoAKernel(PartConv, wS, convS, nil, faces, 0, wS.Len())
}

// SmoothGatherSoAKernel performs one whole Jacobi sweep of the residual
// averaging for vertices [lo,hi) in gather form: next[i] = (rhs[i] +
// eps*sum_j cur[j]) / (1 + eps*deg(i)), j running over row i of the CSR
// vertex adjacency (adjStart, adj). Every vertex writes only its own slot,
// so the sweep needs no coloring and no zeroing, rhs and cur are only read,
// and cur may be longer than the rows: the pool runs it over worker chunks,
// the distributed solver over a processor's owned rows of [owned | ghosts].
// With the rows in the order an edge loop meets each vertex's edges, the
// additions into every sum are that loop's, in its order: the result is
// bitwise SmoothAccumSoAKernel over the edges followed by
// SmoothCombineSoAKernel — or SmoothAccum and SmoothCombine — which remain
// as its oracles.
func SmoothGatherSoAKernel(rhsS, curS, nextS *StateSoA, adjStart, adj []int32, eps float64, lo, hi int) {
	rhs, cur, next := *rhsS, *curS, *nextS
	for i := lo; i < hi; i++ {
		row := adj[adjStart[i]:adjStart[i+1]]
		var s0, s1, s2, s3, s4 float64
		for _, j := range row {
			c := &cur[j]
			s0 += c[0]
			s1 += c[1]
			s2 += c[2]
			s3 += c[3]
			s4 += c[4]
		}
		inv := 1 / (1 + eps*float64(len(row)))
		r, nx := &rhs[i], &next[i]
		nx[0] = (r[0] + eps*s0) * inv
		nx[1] = (r[1] + eps*s1) * inv
		nx[2] = (r[2] + eps*s2) * inv
		nx[3] = (r[3] + eps*s3) * inv
		nx[4] = (r[4] + eps*s4) * inv
	}
}

// SmoothAccumSoAKernel accumulates neighbour sums of curS into nextS for
// the listed edges (the gather phase of one Jacobi sweep in edge form).
func (d *Disc) SmoothAccumSoAKernel(curS, nextS *StateSoA, edges []int32) {
	m := d.M
	cur, next := *curS, *nextS
	for _, e := range edges {
		ed := m.Edges[e]
		i, j := ed[0], ed[1]
		ci, cj := &cur[i], &cur[j]
		ni, nj := &next[i], &next[j]
		ni[0] += cj[0]
		nj[0] += ci[0]
		ni[1] += cj[1]
		nj[1] += ci[1]
		ni[2] += cj[2]
		nj[2] += ci[2]
		ni[3] += cj[3]
		nj[3] += ci[3]
		ni[4] += cj[4]
		nj[4] += ci[4]
	}
}

// SmoothCombineSoAKernel finishes one Jacobi sweep for vertices [lo,hi):
// next = (rhs + eps*next) / (1 + eps*deg).
func (d *Disc) SmoothCombineSoAKernel(rhsS, nextS *StateSoA, eps float64, lo, hi int) {
	deg := d.deg
	rhs, next := *rhsS, *nextS
	for i := lo; i < hi; i++ {
		inv := 1 / (1 + eps*float64(deg[i]))
		r, nx := &rhs[i], &next[i]
		nx[0] = (r[0] + eps*nx[0]) * inv
		nx[1] = (r[1] + eps*nx[1]) * inv
		nx[2] = (r[2] + eps*nx[2]) * inv
		nx[3] = (r[3] + eps*nx[3]) * inv
		nx[4] = (r[4] + eps*nx[4]) * inv
	}
}

// CombineResidualSoAKernel forms resS = convS - dissS (+ forcing) for
// vertices [lo,hi).
func (d *Disc) CombineResidualSoAKernel(resS, convS, dissS *StateSoA, forcing []State, lo, hi int) {
	res, conv, diss := *resS, *convS, *dissS
	for i := lo; i < hi; i++ {
		c, s := &conv[i], &diss[i]
		st := State{c[0] - s[0], c[1] - s[1], c[2] - s[2], c[3] - s[3], c[4] - s[4]}
		if forcing != nil {
			fc := &forcing[i]
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
// [lo,hi) into the solution w: w = w0 - alpha*Dt/V * res.
func (d *Disc) UpdateFinalSoAKernel(w []State, w0S, resS *StateSoA, alpha float64, lo, hi int) {
	vol := d.M.Vol
	w0, res := *w0S, *resS
	for i := lo; i < hi; i++ {
		f := alpha * d.Dt[i] / vol[i]
		z, r := &w0[i], &res[i]
		cand := State{z[0] - f*r[0], z[1] - f*r[1], z[2] - f*r[2], z[3] - f*r[3], z[4] - f*r[4]}
		w[i] = d.P.admitUpdate(*z, cand)
	}
}

// UpdateNextSoAKernel applies an intermediate RK stage update for vertices
// [lo,hi) into the solution block and refreshes the next stage's vertex
// terms from the updated state in the same sweep.
func (d *Disc) UpdateNextSoAKernel(wS, w0S, resS *StateSoA, alpha float64, lo, hi int) {
	g := d.P.Gas
	vol := d.M.Vol
	w, w0, res := *wS, *w0S, *resS
	for i := lo; i < hi; i++ {
		f := alpha * d.Dt[i] / vol[i]
		z, r := &w0[i], &res[i]
		cand := State{z[0] - f*r[0], z[1] - f*r[1], z[2] - f*r[2], z[3] - f*r[3], z[4] - f*r[4]}
		cand = d.P.admitUpdate(*z, cand)
		w[i] = cand
		d.setVertexTerms(i, cand[0], g.Pressure(cand))
	}
}
