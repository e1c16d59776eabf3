package euler

import "math"

// Residual evaluates the full steady residual R(w) = Q(w) - D(w) (+ the
// FAS forcing when non-nil) into res, refreshing pressures first. It is
// used by the multigrid forcing-function construction (once per level pair
// per cycle, so it runs on Disc-owned scratch and allocates nothing), the
// adaptation indicator and tests; the RK driver below calls the same pieces
// itself to control when the dissipation is refrozen.
func (d *Disc) Residual(w, forcing, res []State) {
	d.rdiss = Grow(d.rdiss, len(res))
	d.computePressures(w)
	d.Convective(w, res)
	d.Dissipation(w, d.rdiss)
	CombineResidual(res, res, d.rdiss, forcing)
}

// StepWorkspace holds the per-step scratch arrays of the RK driver.
type StepWorkspace struct {
	w0   []State // stage-0 solution
	conv []State // convective residual
	diss []State // frozen dissipative residual
	res  []State // combined, smoothed residual
}

// NewStepWorkspace allocates workspace for meshes of nv vertices.
func NewStepWorkspace(nv int) *StepWorkspace {
	return &StepWorkspace{
		w0:   make([]State, nv),
		conv: make([]State, nv),
		diss: make([]State, nv),
		res:  make([]State, nv),
	}
}

// Resize grows the workspace for meshes of nv vertices, reusing the
// existing arrays when their capacity allows (see Disc.Retarget).
func (ws *StepWorkspace) Resize(nv int) {
	ws.w0 = Grow(ws.w0, nv)
	ws.conv = Grow(ws.conv, nv)
	ws.diss = Grow(ws.diss, nv)
	ws.res = Grow(ws.res, nv)
}

// Step advances w by one multistage time step of the hybrid scheme:
//
//	w(q) = w(0) - alpha_q * Dt/V * [ Q(w(q-1)) - D* + forcing ]
//
// with the dissipation D* re-evaluated on the first DissipStages stages and
// frozen afterwards, local time steps, and implicit residual averaging
// applied to the combined residual at every stage. forcing may be nil (fine
// grid) or the multigrid FAS forcing function P. It returns the RMS of the
// density component of the first-stage residual divided by the control
// volume — the convergence measure plotted in Figure 2.
func (d *Disc) Step(w []State, forcing []State, ws *StepWorkspace) float64 {
	m := d.M
	nv := m.NV()
	if nv == 0 {
		return 0
	}
	copy(ws.w0, w)

	d.computePressures(w)
	d.ComputeTimeSteps(w)

	resNorm := 0.0
	for q, alpha := range d.P.Stages {
		if q > 0 {
			d.computePressures(w)
		}
		d.Convective(w, ws.conv)
		if q < DissipStages {
			d.Dissipation(w, ws.diss)
		}
		CombineResidual(ws.res, ws.conv, ws.diss, forcing)
		if q == 0 {
			resNorm = math.Sqrt(ResidualNormSq(ws.res, m.Vol, nv) / float64(nv))
		}
		d.SmoothResiduals(ws.res)
		d.P.StageUpdate(w, ws.w0, ws.res, d.Dt, m.Vol, alpha)
	}
	return resNorm
}

// InitUniform fills w with the freestream state.
func (d *Disc) InitUniform(w []State) {
	for i := range w {
		w[i] = d.P.Freestream
	}
}

// NormBlock is the fixed reduction block of the residual-norm sum. Every
// solver engine — sequential, shared-memory pooled, distributed — sums
// (res[i][0]/vol[i])^2 within NormBlock-sized index blocks and combines
// the block partials in block order, so the rounded norm is identical
// across engines and worker counts (the parallel engines hand whole
// blocks to workers).
const NormBlock = 4096

// ResidualNormSq returns sum over i in [0,n) of (res[i][0]/vol[i])^2,
// accumulated in fixed NormBlock-sized blocks combined in block order.
func ResidualNormSq(res []State, vol []float64, n int) float64 {
	sum := 0.0
	for lo := 0; lo < n; lo += NormBlock {
		hi := lo + NormBlock
		if hi > n {
			hi = n
		}
		b := 0.0
		for i := lo; i < hi; i++ {
			r := res[i][0] / vol[i]
			b += r * r
		}
		sum += b
	}
	return sum
}
