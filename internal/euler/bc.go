package euler

import (
	"math"

	"eul3d/internal/geom"
)

// FarFieldState resolves the boundary state on a far-field face by the
// standard one-dimensional characteristic (Riemann-invariant) analysis
// normal to the face: the outgoing invariant comes from the interior state
// wi, the incoming one from the freestream winf; entropy and tangential
// velocity are taken from the donor side selected by the sign of the
// resolved normal velocity. Supersonic faces take the full donor state. It
// is the composition of the closure's two parts: NewFarField, what depends
// on the freestream alone, and FarField.State, the per-face rest.
func FarFieldState(g Gas, wi, winf State, n geom.Vec3) State {
	ff := NewFarField(g, winf)
	return ff.State(wi, n)
}

// FarField is the freestream half of the far-field closure: the
// freestream state with its velocity, sound speed and entropy p/rho^gamma,
// which depend on no face. A face sweep derives one per call and resolves
// every far-field face through it, so the freestream's math.Pow runs once
// a sweep, not once an inflow face.
type FarField struct {
	g    Gas
	w    State     // the freestream state
	u    geom.Vec3 // its velocity
	c, s float64   // its sound speed and entropy
}

// NewFarField derives the freestream half of the far-field closure from
// winf under the gas g.
func NewFarField(g Gas, winf State) FarField {
	rhoF := winf[0]
	pF := g.Pressure(winf)
	return FarField{
		g: g, w: winf,
		u: geom.Vec3{X: winf[1] / rhoF, Y: winf[2] / rhoF, Z: winf[3] / rhoF},
		c: math.Sqrt(g.Gamma * pF / rhoF),
		s: pF / math.Pow(rhoF, g.Gamma),
	}
}

// State resolves the boundary state on a far-field face of area normal n
// whose face-averaged interior state is wi: the per-face half of
// FarFieldState, bitwise its result.
func (f *FarField) State(wi State, n geom.Vec3) State {
	g := f.g
	nhat := n.Normalized()
	gm1 := g.Gamma - 1

	rhoI := wi[0]
	pI := g.Pressure(wi)
	if rhoI <= 0 || pI <= 0 {
		// The face-averaged interior state can go unphysical during a
		// violent start-up transient (pressure is not convex in the
		// conserved variables); fall back to the freestream, which the
		// characteristic analysis would approach anyway.
		return f.w
	}
	uI := geom.Vec3{X: wi[1] / rhoI, Y: wi[2] / rhoI, Z: wi[3] / rhoI}
	cI := math.Sqrt(g.Gamma * pI / rhoI)
	unI := uI.Dot(nhat)
	unF := f.u.Dot(nhat)

	// Supersonic short-circuit: everything from one side.
	if unI/cI >= 1 { // supersonic outflow
		return wi
	}
	if unF/f.c <= -1 { // supersonic inflow
		return f.w
	}

	rPlus := unI + 2*cI/gm1   // carried out of the domain by the interior
	rMinus := unF - 2*f.c/gm1 // carried into the domain by the freestream
	unB := 0.5 * (rPlus + rMinus)
	cB := 0.25 * gm1 * (rPlus - rMinus)

	var s float64 // entropy p/rho^gamma from the donor side
	var ut geom.Vec3
	if unB > 0 { // outflow: donor is the interior
		s = pI / math.Pow(rhoI, g.Gamma)
		ut = uI.Sub(nhat.Scale(unI))
	} else { // inflow: donor is the freestream
		s = f.s
		ut = f.u.Sub(nhat.Scale(unF))
	}
	rhoB := math.Pow(cB*cB/(g.Gamma*s), 1/gm1)
	pB := rhoB * cB * cB / g.Gamma
	uB := ut.Add(nhat.Scale(unB))
	return g.FromPrimitive(rhoB, uB.X, uB.Y, uB.Z, pB)
}
