package euler

import (
	"math"

	"eul3d/internal/geom"
	"eul3d/internal/mesh"
)

// Params collects the numerical parameters of the scheme. Zero values are
// replaced by DefaultParams values where noted.
type Params struct {
	Gas        Gas
	CFL        float64   // Courant number for the local time step
	K2         float64   // Laplacian (shock) dissipation coefficient
	K4         float64   // biharmonic (background) dissipation coefficient
	EpsSmooth  float64   // implicit residual averaging coefficient (0 = off)
	NSmooth    int       // Jacobi sweeps for residual averaging
	Stages     []float64 // Runge-Kutta stage coefficients
	Freestream State     // far-field reference state

	// Positivity guard (see Guard): a stage update dropping density below
	// MinDensity or pressure below MinPressure is reverted at that vertex.
	// Zero values disable the guard.
	MinDensity  float64
	MinPressure float64

	// ConvexLimit replaces the all-or-nothing revert with the clip-free
	// convex limiter (see LimitUpdate in limiter.go): an inadmissible stage
	// update is scaled back along the segment to the stage-0 state until
	// density and pressure clear the floors, instead of being discarded.
	// Requires positive MinDensity/MinPressure to have any effect.
	ConvexLimit bool

	// GlobalDt, when positive, replaces the local time step CFL*V/lambda
	// with this fixed global step at every vertex, turning the multistage
	// scheme into a time-accurate low-storage Runge-Kutta integrator (set
	// EpsSmooth/NSmooth to zero as well — implicit residual averaging is a
	// steady-state convergence device and destroys time accuracy). The
	// caller owns stability: GlobalDt must respect the most restrictive
	// vertex's CFL limit.
	GlobalDt float64
}

// DefaultParams returns the parameter set used by the experiments: the
// hybrid 5-stage scheme with alpha = (1/4, 1/6, 3/8, 1/2, 1), dissipation
// evaluated on the first two stages only, CFL boosted by residual
// averaging.
func DefaultParams(mach, alphaDeg float64) Params {
	g := Air
	return Params{
		Gas:         g,
		CFL:         6.0,
		K2:          0.55,
		K4:          1.0 / 16,
		EpsSmooth:   0.6,
		NSmooth:     2,
		MinDensity:  0.05,
		MinPressure: 0.02,
		Stages:      []float64{0.25, 1.0 / 6, 0.375, 0.5, 1.0},
		Freestream:  g.Freestream(mach, alphaDeg),
	}
}

// DissipStages is the number of leading RK stages on which the dissipative
// operator is re-evaluated; it is frozen afterwards (Section 2.2).
const DissipStages = 2

// Disc couples a mesh with the numerical parameters and owns the scratch
// arrays for one grid level, so that the per-cycle hot loops are
// allocation-free.
type Disc struct {
	M *mesh.Mesh
	P Params

	// Scratch (sized to the mesh):
	pres   []float64 // vertex pressures
	rinv   []float64 // vertex 1/rho (SoA kernels only; see setVertexTerms)
	snd    []float64 // vertex sound speeds (SoA kernels only)
	lam    []float64 // vertex-accumulated spectral radii (for Dt)
	sensor []float64 // pressure-switch numerator workspace
	den    []float64 // pressure-switch denominator workspace
	deg    []int32   // vertex degrees (for Jacobi smoothing)
	Dt     []float64 // local time steps
	// Sequential-driver scratch, sized on first use by the methods that read
	// it (their zero-allocation tests warm up first); nil in a pooled engine.
	lapl   []State // undivided Laplacian of w
	smooth []State // residual-averaging workspace
	rhs    []State // residual-averaging right-hand side copy
	rdiss  []State // dissipation scratch for Residual
}

// NewDisc allocates a discretization for mesh m with parameters p.
func NewDisc(m *mesh.Mesh, p Params) *Disc {
	nv := m.NV()
	return &Disc{
		M: m, P: p,
		pres:   make([]float64, nv),
		rinv:   make([]float64, nv),
		snd:    make([]float64, nv),
		lam:    make([]float64, nv),
		sensor: make([]float64, nv),
		den:    make([]float64, nv),
		deg:    degrees(m),
		Dt:     make([]float64, nv),
	}
}

func degrees(m *mesh.Mesh) []int32 {
	deg := make([]int32, m.NV())
	for _, e := range m.Edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	return deg
}

// Grow returns a length-n slice over s's backing array when that is large
// enough, and otherwise a new one: exactly n long for a nil s, and with 25%
// headroom when an existing array is outgrown, so repeated adaptation
// epochs amortize. Contents are unspecified beyond the old data.
func Grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	if s == nil {
		return make([]T, n)
	}
	return make([]T, n, n+n/4)
}

// Retarget points the discretization at a new (typically adaptively
// refined) mesh, growing the scratch arrays in place where their capacity
// allows. It is the cheap alternative to NewDisc between adaptation
// epochs: no allocation happens when the mesh shrank or grew within the
// reserve headroom. Scratch contents are recomputed by the next operator
// call; only deg is rebuilt eagerly (SmoothResiduals reads it directly).
func (d *Disc) Retarget(m *mesh.Mesh, p Params) {
	d.M, d.P = m, p
	nv := m.NV()
	d.pres = Grow(d.pres, nv)
	d.rinv = Grow(d.rinv, nv)
	d.snd = Grow(d.snd, nv)
	d.lam = Grow(d.lam, nv)
	d.sensor = Grow(d.sensor, nv)
	d.den = Grow(d.den, nv)
	d.Dt = Grow(d.Dt, nv)
	d.deg = Grow(d.deg, nv)
	for i := range d.deg {
		d.deg[i] = 0
	}
	for _, e := range m.Edges {
		d.deg[e[0]]++
		d.deg[e[1]]++
	}
}

// MinStableDt returns the most restrictive vertex time step min_i V_i /
// lambda_i of solution w on mesh m — the CFL=1 stability bound that
// adaptive time stepping rescales GlobalDt against after each refinement
// epoch. It runs sequentially in mesh order (a fixed adaptation schedule
// must yield bitwise-identical steps at every worker count) and owns its
// scratch, so it is safe to call on any mesh/solution pair without a Disc.
// Its spectral radii are the kernels': the vertex terms, then
// LambdaEdgesSoAKernel over the edges and LambdaBFacesSoAKernel over the
// boundary faces in list order, which make the reference SpectralRadii's
// additions in its order, bit for bit. w is only read.
func MinStableDt(m *mesh.Mesh, p Params, w []State) float64 {
	nv := m.NV()
	d := &Disc{M: m, P: p, pres: make([]float64, nv), rinv: make([]float64, nv), snd: make([]float64, nv)}
	for i, st := range w {
		d.setVertexTerms(i, st[0], p.Gas.Pressure(st))
	}
	ids := make([]int32, max(len(m.Edges), len(m.BFaces)))
	for i := range ids {
		ids[i] = int32(i)
	}
	lam := make([]float64, nv)
	d.LambdaEdgesSoAKernel(Block(&w), lam, ids[:len(m.Edges)])
	d.LambdaBFacesSoAKernel(Block(&w), lam, ids[:len(m.BFaces)])
	min := math.Inf(1)
	for i := 0; i < nv; i++ {
		if lam[i] > 0 {
			if dt := m.Vol[i] / lam[i]; dt < min {
				min = dt
			}
		}
	}
	return min
}

// The reference operator. The functions from here to StageUpdate are the
// scheme's loop bodies over explicit arrays: an edge list with its dual
// normals, a boundary-face list, the solution, its pressures and the
// accumulators. They know nothing of who drives them. The sequential Disc
// below runs them over the whole mesh; the distributed solver (package
// dmsolver) runs the vertex functions over each processor's local
// [owned | ghost] arrays, and keeps the edge and face functions as the
// oracle its sweeps are tested against. Every accumulating function
// overwrites its accumulators (it zeroes them first) and visits edges and
// faces in list order, so the additions one slot receives, and their order,
// are fixed by the lists alone. The SoA kernels of kernels_soa.go — what
// the pooled and the distributed engine run for the edge and face loops and
// the smoother — are the only other statement of this arithmetic.

// Pressures fills pres[i] with the static pressure of w[i].
func Pressures(g Gas, w []State, pres []float64) {
	for i := range w {
		pres[i] = g.Pressure(w[i])
	}
}

// Convective overwrites res with the convective operator Q(w): one loop
// over edges plus the boundary closure — a weak pressure flux on walls and
// symmetry planes, a characteristic far-field flux on in/outflow faces,
// each face flux lumped equally onto the face's three vertices. pres must
// hold the pressures of w.
func Convective(p *Params, edges [][2]int32, normals []geom.Vec3, faces []mesh.BFace, w []State, pres []float64, res []State) {
	for i := range res {
		res[i] = State{}
	}
	for e, ed := range edges {
		i, j := ed[0], ed[1]
		n := normals[e]
		fi := FluxDotN(w[i], pres[i], n.X, n.Y, n.Z)
		fj := FluxDotN(w[j], pres[j], n.X, n.Y, n.Z)
		for k := 0; k < NVar; k++ {
			f := 0.5 * (fi[k] + fj[k])
			res[i][k] += f
			res[j][k] -= f
		}
	}
	g := p.Gas
	for bi := range faces {
		f := &faces[bi]
		n := f.Normal
		var flux State
		switch f.Kind {
		case mesh.Wall, mesh.Symmetry:
			// Impermeable: only the pressure term survives v.n = 0.
			pf := (pres[f.V[0]] + pres[f.V[1]] + pres[f.V[2]]) / 3
			flux = State{0, pf * n.X, pf * n.Y, pf * n.Z, 0}
		case mesh.FarField:
			var wi State
			for k := 0; k < NVar; k++ {
				wi[k] = (w[f.V[0]][k] + w[f.V[1]][k] + w[f.V[2]][k]) / 3
			}
			wb := FarFieldState(g, wi, p.Freestream, n)
			flux = FluxDotN(wb, g.Pressure(wb), n.X, n.Y, n.Z)
		}
		for k := 0; k < NVar; k++ {
			third := flux[k] / 3
			res[f.V[0]][k] += third
			res[f.V[1]][k] += third
			res[f.V[2]][k] += third
		}
	}
}

// SpectralRadius returns the convective spectral radius |v_avg.n| +
// c_avg*|n| of the edge joining states wi and wj (with precomputed
// pressures pi, pj) across the dual face normal n.
func SpectralRadius(g Gas, wi, wj State, pi, pj float64, n geom.Vec3) float64 {
	ri, rj := 1/wi[0], 1/wj[0]
	u := 0.5 * (wi[1]*ri + wj[1]*rj)
	v := 0.5 * (wi[2]*ri + wj[2]*rj)
	ww := 0.5 * (wi[3]*ri + wj[3]*rj)
	c := 0.5 * (math.Sqrt(g.Gamma*pi*ri) + math.Sqrt(g.Gamma*pj*rj))
	return math.Abs(u*n.X+v*n.Y+ww*n.Z) + c*n.Norm()
}

// DissPass1 is the first dissipation pass of Section 2.2: it overwrites
// lapl with the undivided Laplacian of w and num/den with the sums of the
// pressure sensor.
func DissPass1(edges [][2]int32, w []State, pres []float64, lapl []State, num, den []float64) {
	for i := range lapl {
		lapl[i] = State{}
		num[i] = 0
		den[i] = 0
	}
	for _, ed := range edges {
		i, j := ed[0], ed[1]
		for k := 0; k < NVar; k++ {
			dw := w[j][k] - w[i][k]
			lapl[i][k] += dw
			lapl[j][k] -= dw
		}
		dp := pres[j] - pres[i]
		num[i] += dp
		num[j] -= dp
		sp := pres[j] + pres[i]
		den[i] += sp
		den[j] += sp
	}
}

// ShockSwitch converts completed sensor sums to the per-vertex shock
// switch nu = |num|/den, stored in num.
func ShockSwitch(num, den []float64) {
	for i := range num {
		num[i] = math.Abs(num[i]) / den[i]
	}
}

// DissPass2 is the second dissipation pass: it overwrites diss with the
// blended Laplacian/biharmonic dissipative flux, given the shock switch nu
// and the Laplacian lapl complete at both ends of every edge.
func DissPass2(p *Params, edges [][2]int32, normals []geom.Vec3, w []State, pres []float64, lapl []State, nu []float64, diss []State) {
	for i := range diss {
		diss[i] = State{}
	}
	g, k2, k4 := p.Gas, p.K2, p.K4
	for e, ed := range edges {
		i, j := ed[0], ed[1]
		lamE := SpectralRadius(g, w[i], w[j], pres[i], pres[j], normals[e])
		eps2 := k2 * math.Max(nu[i], nu[j])
		eps4 := math.Max(0, k4-eps2)
		for k := 0; k < NVar; k++ {
			f := lamE * (eps2*(w[j][k]-w[i][k]) - eps4*(lapl[j][k]-lapl[i][k]))
			diss[i][k] += f
			diss[j][k] -= f
		}
	}
}

// SpectralRadii overwrites lam with the vertex sums of the edge and
// boundary-face spectral radii (the denominator of the local time step).
func SpectralRadii(g Gas, edges [][2]int32, normals []geom.Vec3, faces []mesh.BFace, w []State, pres, lam []float64) {
	for i := range lam {
		lam[i] = 0
	}
	for e, ed := range edges {
		i, j := ed[0], ed[1]
		lamE := SpectralRadius(g, w[i], w[j], pres[i], pres[j], normals[e])
		lam[i] += lamE
		lam[j] += lamE
	}
	for bi := range faces {
		f := &faces[bi]
		n := f.Normal
		for _, v := range f.V {
			inv := 1 / w[v][0]
			un := (w[v][1]*n.X + w[v][2]*n.Y + w[v][3]*n.Z) * inv
			c := math.Sqrt(g.Gamma * pres[v] * inv)
			lam[v] += (math.Abs(un) + c*n.Norm()) / 3
		}
	}
}

// TimeSteps fills dt: the fixed GlobalDt everywhere in time-accurate mode
// (lam is then not read — drivers skip SpectralRadii), the local step
// CFL*vol/lam otherwise.
func (p *Params) TimeSteps(dt, vol, lam []float64) {
	if g := p.GlobalDt; g > 0 {
		for i := range dt {
			dt[i] = g
		}
		return
	}
	cfl := p.CFL
	for i := range dt {
		dt[i] = cfl * vol[i] / lam[i]
	}
}

// CombineResidual forms res = conv - diss (+ forcing when non-nil).
func CombineResidual(res, conv, diss, forcing []State) {
	for i := range res {
		for k := 0; k < NVar; k++ {
			res[i][k] = conv[i][k] - diss[i][k]
		}
		if forcing != nil {
			for k := 0; k < NVar; k++ {
				res[i][k] += forcing[i][k]
			}
		}
	}
}

// SmoothAccum is the gather phase of one Jacobi sweep of the residual
// averaging: it overwrites next with the neighbour sums of cur. It is small
// enough to be inlined, and must not be: inlined into a driver's sweep /
// processor / exchange loop nest the edge loop loses its registers to the
// driver's state (measured +37% on this loop in dmsolver).
//
//go:noinline
func SmoothAccum(edges [][2]int32, cur, next []State) {
	for i := range next {
		next[i] = State{}
	}
	for _, ed := range edges {
		i, j := ed[0], ed[1]
		for k := 0; k < NVar; k++ {
			next[i][k] += cur[j][k]
			next[j][k] += cur[i][k]
		}
	}
}

// SmoothCombine finishes the sweep on completed sums: next = (rhs +
// eps*next) / (1 + eps*deg), deg being the vertex's edge count.
func SmoothCombine(rhs, next []State, deg []int32, eps float64) {
	for i := range next {
		inv := 1 / (1 + eps*float64(deg[i]))
		for k := 0; k < NVar; k++ {
			next[i][k] = (rhs[i][k] + eps*next[i][k]) * inv
		}
	}
}

// StageUpdate applies one Runge-Kutta stage, w = w0 - alpha*dt/vol * res,
// passing every vertex through admitUpdate (the positivity revert, or the
// convex limiter under ConvexLimit).
func (p *Params) StageUpdate(w, w0, res []State, dt, vol []float64, alpha float64) {
	for i := range w {
		f := alpha * dt[i] / vol[i]
		var cand State
		for k := 0; k < NVar; k++ {
			cand[k] = w0[i][k] - f*res[i][k]
		}
		w[i] = p.admitUpdate(w0[i], cand)
	}
}

// The sequential driver: the reference operator over the whole mesh.

// computePressures fills d.pres from w.
func (d *Disc) computePressures(w []State) { Pressures(d.P.Gas, w, d.pres) }

// Convective overwrites res with Q(w). Pressures must be current
// (computePressures).
func (d *Disc) Convective(w []State, res []State) {
	Convective(&d.P, d.M.Edges, d.M.EdgeNorm, d.M.BFaces, w, d.pres, res)
}

// Dissipation overwrites diss with the artificial dissipation D(w): the
// two-pass edge loop of Section 2.2 with the shock switch between the
// passes. Pressures must be current.
func (d *Disc) Dissipation(w []State, diss []State) {
	m := d.M
	d.lapl = Grow(d.lapl, m.NV())
	DissPass1(m.Edges, w, d.pres, d.lapl, d.sensor, d.den)
	ShockSwitch(d.sensor, d.den)
	DissPass2(&d.P, m.Edges, m.EdgeNorm, w, d.pres, d.lapl, d.sensor, diss)
}

// ComputeTimeSteps fills d.Dt. Pressures must be current.
func (d *Disc) ComputeTimeSteps(w []State) {
	m := d.M
	if d.P.GlobalDt <= 0 {
		SpectralRadii(d.P.Gas, m.Edges, m.EdgeNorm, m.BFaces, w, d.pres, d.lam)
	}
	d.P.TimeSteps(d.Dt, m.Vol, d.lam)
}

// SmoothResiduals applies NSmooth Jacobi sweeps of the implicit residual
// averaging (I + eps*L) Rbar = R, in place on res.
func (d *Disc) SmoothResiduals(res []State) {
	eps := d.P.EpsSmooth
	if eps == 0 || d.P.NSmooth == 0 || len(res) == 0 {
		return
	}
	d.rhs, d.smooth = Grow(d.rhs, len(res)), Grow(d.smooth, len(res))
	copy(d.rhs, res) // the original R stays the Jacobi right-hand side
	cur, next := res, d.smooth
	for sweep := 0; sweep < d.P.NSmooth; sweep++ {
		SmoothAccum(d.M.Edges, cur, next)
		SmoothCombine(d.rhs, next, d.deg, eps)
		cur, next = next, cur
	}
	if &cur[0] != &res[0] {
		copy(res, cur)
	}
}

// Guard returns true when s is physically admissible under the positivity
// thresholds. Stage updates that fail the guard are reverted to the
// stage-0 state: during violent impulsive-start transients (most visibly
// the W-cycle's repeated coarse-grid visits on fine meshes) an
// intermediate Runge-Kutta state can otherwise reach negative density or
// pressure and poison the run with NaNs. Near convergence the guard never
// triggers, so the converged solution is unaffected.
func (p *Params) Guard(s State) bool {
	if p.MinDensity <= 0 && p.MinPressure <= 0 {
		return true
	}
	if s[0] < p.MinDensity {
		return false
	}
	return p.Gas.Pressure(s) >= p.MinPressure
}

// guardPressure is Guard on a state s whose pressure pr is already known.
func (p *Params) guardPressure(s State, pr float64) bool {
	if p.MinDensity <= 0 && p.MinPressure <= 0 {
		return true
	}
	if s[0] < p.MinDensity {
		return false
	}
	return pr >= p.MinPressure
}

// Repair enforces the positivity floors on s, preserving velocity:
// density and pressure are clamped from below and the conserved state is
// rebuilt. States produced by *interpolation* (multigrid restriction and
// correction) need this rather than a revert, because there is no previous
// admissible value to fall back on — conserved-variable interpolation
// preserves positive density but not positive pressure.
func (p *Params) Repair(s State) State {
	if p.Guard(s) {
		return s
	}
	g := p.Gas
	rho := s[0]
	if rho < p.MinDensity {
		rho = p.MinDensity
	}
	u, v, w := s[1]/s[0], s[2]/s[0], s[3]/s[0]
	if s[0] <= 0 {
		u, v, w = 0, 0, 0
	}
	pr := g.Pressure(s)
	if pr < p.MinPressure {
		pr = p.MinPressure
	}
	return g.FromPrimitive(rho, u, v, w, pr)
}
