// Package flops provides the analytic floating-point operation counts used
// to report computational rates. The paper's Delta MFlops numbers were
// "obtained by counting the number of operations in each loop" — the same
// approach is used here: each kernel has a per-element cost derived from
// its arithmetic, multiplied by real loop trip counts.
package flops

// Per-element flop costs of the solver kernels.
const (
	ConvEdge   = 48 // two flux projections + average + scatter
	ConvBFace  = 44 // boundary closure (wall/far-field average)
	Diss1Edge  = 24 // Laplacian and sensor accumulation
	Diss2Edge  = 66 // spectral radius + blended flux
	DtEdge     = 26 // spectral radius accumulation
	DtBFace    = 16
	DtVertex   = 2
	SmoothEdge = 10 // per Jacobi sweep
	SmoothVert = 12 // per Jacobi sweep
	PresVert   = 12
	NuVert     = 2
	StageVert  = 16 // residual combine + solution update
	XferVert   = 40 // 4-address interpolation, 5 variables

	// StageVert split for per-phase reporting (StageVert = CombineVert +
	// UpdateVert): forming res = conv - diss (+ forcing) vs the guarded
	// RK solution update.
	CombineVert = 6
	UpdateVert  = 10
)

// Step returns the flops of one multistage time step on a grid with nv
// vertices, ne edges and nbf boundary faces, for the hybrid scheme with
// the given stage count, dissipation evaluations and smoothing sweeps.
func Step(nv, ne, nbf int64, stages, dissStages, nsmooth int) int64 {
	s := int64(stages)
	d := int64(dissStages)
	sm := int64(nsmooth) * s
	var f int64
	f += s * (ne*ConvEdge + nbf*ConvBFace) // convective operator per stage
	f += d * ne * (Diss1Edge + Diss2Edge)  // dissipation on the first stages
	f += TimeSteps(nv, ne, nbf)
	f += sm * (ne*SmoothEdge + nv*SmoothVert)
	f += s * nv * (PresVert + StageVert)
	f += d * nv * NuVert
	return f
}

// Residual returns the flops of one full residual evaluation (used by the
// multigrid forcing construction).
func Residual(nv, ne, nbf int64) int64 {
	return ne*ConvEdge + nbf*ConvBFace + ne*(Diss1Edge+Diss2Edge) + nv*(PresVert+NuVert)
}

// TimeSteps returns the flops of the spectral radii and the local time
// steps: what a step's first stage evaluates beyond a residual.
func TimeSteps(nv, ne, nbf int64) int64 {
	return ne*DtEdge + nbf*DtBFace + nv*DtVertex
}

// Transfer returns the flops of the inter-grid transfers around one
// coarse-grid visit: restricting variables and residuals (fine scatter) and
// prolonging corrections.
func Transfer(nvFine, nvCoarse int64) int64 {
	return nvCoarse*XferVert + // variable restriction
		nvFine*XferVert + // residual scatter
		nvFine*XferVert // correction prolongation
}
