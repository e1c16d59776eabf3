package euler

import (
	"math"
	"math/rand"
	"testing"

	"eul3d/internal/geom"
	"eul3d/internal/mesh"
)

// farFieldWhole is the far-field closure stated as one function, the
// freestream's velocity, pressure, sound speed and entropy derived inside
// it on every call: the oracle the split into FarField and FarField.State
// is held to. branch names the case that returned.
func farFieldWhole(g Gas, wi, winf State, n geom.Vec3) (State, string) {
	nhat := n.Normalized()
	gm1 := g.Gamma - 1
	rhoI := wi[0]
	pI := g.Pressure(wi)
	if rhoI <= 0 || pI <= 0 {
		return winf, "fallback"
	}
	uI := geom.Vec3{X: wi[1] / rhoI, Y: wi[2] / rhoI, Z: wi[3] / rhoI}
	cI := math.Sqrt(g.Gamma * pI / rhoI)
	unI := uI.Dot(nhat)
	rhoF := winf[0]
	uF := geom.Vec3{X: winf[1] / rhoF, Y: winf[2] / rhoF, Z: winf[3] / rhoF}
	pF := g.Pressure(winf)
	cF := math.Sqrt(g.Gamma * pF / rhoF)
	unF := uF.Dot(nhat)
	if unI/cI >= 1 {
		return wi, "supersonic outflow"
	}
	if unF/cF <= -1 {
		return winf, "supersonic inflow"
	}
	rPlus := unI + 2*cI/gm1
	rMinus := unF - 2*cF/gm1
	unB := 0.5 * (rPlus + rMinus)
	cB := 0.25 * gm1 * (rPlus - rMinus)
	var s float64
	var ut geom.Vec3
	branch := "subsonic outflow"
	if unB > 0 {
		s = pI / math.Pow(rhoI, g.Gamma)
		ut = uI.Sub(nhat.Scale(unI))
	} else {
		branch = "subsonic inflow"
		s = pF / math.Pow(rhoF, g.Gamma)
		ut = uF.Sub(nhat.Scale(unF))
	}
	rhoB := math.Pow(cB*cB/(g.Gamma*s), 1/gm1)
	pB := rhoB * cB * cB / g.Gamma
	uB := ut.Add(nhat.Scale(unB))
	return g.FromPrimitive(rhoB, uB.X, uB.Y, uB.Z, pB), branch
}

// TestFarFieldSplitBitwise: the per-face closure over a freestream derived
// once (NewFarField, then State on every face) is bitwise the closure
// derived whole per face, and so is FarFieldState, on seeded interior
// states and face normals under subsonic and supersonic freestreams. The
// seeds reach all five cases: subsonic inflow and outflow, both supersonic
// short-circuits and the unphysical-state fallback.
func TestFarFieldSplitBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := Air
	reached := map[string]int{}
	for _, fs := range []struct{ mach, alpha float64 }{{0.3, 0}, {0.675, 2}, {0.85, -5}, {1.6, 10}, {2.5, 30}} {
		winf := g.Freestream(fs.mach, fs.alpha)
		ff := NewFarField(g, winf)
		for k := 0; k < 4000; k++ {
			rho := 0.2 + 2*rng.Float64()
			mach := 3 * rng.Float64()
			dir := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Normalized()
			p := (0.2 + 2*rng.Float64()) / g.Gamma
			u := dir.Scale(mach * math.Sqrt(g.Gamma*p/rho))
			wi := g.FromPrimitive(rho, u.X, u.Y, u.Z, p)
			switch k % 50 {
			case 0:
				wi[4] = -wi[4] // negative pressure
			case 1:
				wi[0] = -wi[0] // negative density
			}
			n := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Scale(0.01 + rng.Float64())
			want, branch := farFieldWhole(g, wi, winf, n)
			reached[branch]++
			if got := ff.State(wi, n); got != want {
				t.Fatalf("M%v case %d (%s): FarField.State %v, the whole closure %v", fs.mach, k, branch, got, want)
			}
			if got := FarFieldState(g, wi, winf, n); got != want {
				t.Fatalf("M%v case %d (%s): FarFieldState %v, the whole closure %v", fs.mach, k, branch, got, want)
			}
		}
	}
	for _, b := range []string{"subsonic inflow", "subsonic outflow", "supersonic inflow", "supersonic outflow", "fallback"} {
		if reached[b] == 0 {
			t.Errorf("no case reached %s: %v", b, reached)
		}
	}
	t.Logf("cases per branch: %v", reached)
}

// TestUpdateNextFormsOnePressure: the fused intermediate update, which
// forms each candidate's pressure once for the admission test and the next
// stage's vertex terms, leaves the states of the reference StageUpdate and
// the vertex terms of their own pressures, bit for bit, on vertices whose
// candidates are admitted, reverted (the guard) and limited (ConvexLimit);
// the seeds reach all three.
func TestUpdateNextFormsOnePressure(t *testing.T) {
	const nv = 600
	rng := rand.New(rand.NewSource(5))
	for _, limit := range []bool{false, true} {
		p := DefaultParams(0.675, 0)
		p.ConvexLimit = limit
		vol := make([]float64, nv)
		d := NewViewDisc(&mesh.Mesh{Vol: vol}, p, nv)
		d.Dt = make([]float64, nv)
		w0, res := make([]State, nv), make([]State, nv)
		for i := range w0 {
			vol[i], d.Dt[i] = 0.5+rng.Float64(), 0.1+rng.Float64()
			w0[i] = p.Gas.FromPrimitive(0.5+rng.Float64(), rng.NormFloat64(), rng.NormFloat64(), 0, (0.5+rng.Float64())/p.Gas.Gamma)
			scale := 0.01
			if i%3 == 0 {
				scale = 5 // drives the candidate out of the admissible set
			}
			for k := range res[i] {
				res[i][k] = scale * rng.NormFloat64()
			}
		}
		const alpha = 0.375
		want := make([]State, nv)
		p.StageUpdate(want, w0, res, d.Dt, vol, alpha)
		wS := NewStateSoA(nv)
		d.UpdateNextSoAKernel(wS, Block(&w0), Block(&res), alpha, 0, nv)
		var admitted, kept, limited int
		for i, st := range *wS {
			if st != want[i] {
				t.Fatalf("limit=%v vertex %d: %v, StageUpdate %v", limit, i, st, want[i])
			}
			pr := p.Gas.Pressure(st)
			if d.pres[i] != pr || d.rinv[i] != 1/st[0] || d.snd[i] != math.Sqrt(p.Gas.Gamma*pr*(1/st[0])) {
				t.Fatalf("limit=%v vertex %d: vertex terms %v %v %v, not those of its state", limit, i, d.pres[i], d.rinv[i], d.snd[i])
			}
			switch f := alpha * d.Dt[i] / vol[i]; {
			case st == w0[i]:
				kept++
			case st == State{w0[i][0] - f*res[i][0], w0[i][1] - f*res[i][1], w0[i][2] - f*res[i][2], w0[i][3] - f*res[i][3], w0[i][4] - f*res[i][4]}:
				admitted++
			default:
				limited++
			}
		}
		if admitted == 0 || (!limit && kept == 0) || (limit && limited == 0) {
			t.Errorf("limit=%v: %d admitted, %d reverted, %d limited: a case is not reached", limit, admitted, kept, limited)
		}
	}
}
