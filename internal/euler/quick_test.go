package euler

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"eul3d/internal/geom"
)

// randState draws a physically valid conserved state.
func randState(rng *rand.Rand) State {
	return Air.FromPrimitive(
		0.2+2*rng.Float64(),
		2*rng.Float64()-1,
		2*rng.Float64()-1,
		2*rng.Float64()-1,
		0.1+rng.Float64(),
	)
}

func TestQuickFluxLinearInNormal(t *testing.T) {
	// F(w).n is linear in the normal: F.(a*n1 + b*n2) = a*F.n1 + b*F.n2.
	rng := rand.New(rand.NewSource(2))
	f := func(a, b float64) bool {
		if math.Abs(a) > 1e3 || math.Abs(b) > 1e3 {
			return true
		}
		s := randState(rng)
		p := Air.Pressure(s)
		n1 := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		n2 := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		n := n1.Scale(a).Add(n2.Scale(b))
		lhs := FluxDotN(s, p, n.X, n.Y, n.Z)
		f1 := FluxDotN(s, p, n1.X, n1.Y, n1.Z)
		f2 := FluxDotN(s, p, n2.X, n2.Y, n2.Z)
		for k := 0; k < NVar; k++ {
			want := a*f1[k] + b*f2[k]
			if math.Abs(lhs[k]-want) > 1e-9*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickPrimitiveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rho := 0.2 + 2*rng.Float64()
		u, v, w := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		p := 0.1 + rng.Float64()
		s := Air.FromPrimitive(rho, u, v, w, p)
		gu, gv, gw := Air.Velocity(s)
		return math.Abs(Air.Pressure(s)-p) < 1e-12 &&
			math.Abs(gu-u)+math.Abs(gv-v)+math.Abs(gw-w) < 1e-12 &&
			s[0] == rho
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickSpectralRadiusProperties(t *testing.T) {
	// Symmetric in the two states; positively homogeneous of degree 1 in
	// the normal; bounded below by c_avg*|n|.
	rng := rand.New(rand.NewSource(3))
	f := func(scale float64) bool {
		scale = math.Abs(scale)
		if scale == 0 || scale > 1e3 || math.IsInf(scale, 0) || math.IsNaN(scale) {
			return true
		}
		wi, wj := randState(rng), randState(rng)
		pi, pj := Air.Pressure(wi), Air.Pressure(wj)
		n := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		l1 := SpectralRadius(Air, wi, wj, pi, pj, n)
		l2 := SpectralRadius(Air, wj, wi, pj, pi, n)
		if math.Abs(l1-l2) > 1e-12*(1+l1) {
			return false
		}
		ls := SpectralRadius(Air, wi, wj, pi, pj, n.Scale(scale))
		if math.Abs(ls-scale*l1) > 1e-9*(1+ls) {
			return false
		}
		cAvg := 0.5 * (Air.SoundSpeed(wi) + Air.SoundSpeed(wj))
		return l1 >= cAvg*n.Norm()-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickFarFieldConsistency(t *testing.T) {
	// For any interior state, the far-field state keeps positive density
	// and pressure, and at uniform conditions it is the identity.
	rng := rand.New(rand.NewSource(4))
	winf := Air.Freestream(0.7, 1.0)
	f := func(seed int64) bool {
		_ = seed
		wi := randState(rng)
		n := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		if n.Norm() < 1e-12 {
			return true
		}
		wb := FarFieldState(Air, wi, winf, n)
		return wb[0] > 0 && Air.Pressure(wb) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// rowsInEdgeOrder returns the CSR vertex adjacency of an edge list with
// every row in the order the list meets its vertex's edges — the order in
// which an edge loop over the list adds into that vertex's slot.
func rowsInEdgeOrder(nv int, edges [][2]int32) (start, adj []int32) {
	start, adj = make([]int32, nv+1), make([]int32, 2*len(edges))
	for _, e := range edges {
		start[e[0]+1]++
		start[e[1]+1]++
	}
	for i := 0; i < nv; i++ {
		start[i+1] += start[i]
	}
	at := append([]int32(nil), start[:nv]...)
	for _, e := range edges {
		adj[at[e[0]]] = e[1]
		at[e[0]]++
		adj[at[e[1]]] = e[0]
		at[e[1]]++
	}
	return start, adj
}

// TestQuickSmoothGatherIsTheEdgeForm: on random edge lists — multi-edges,
// self-loops and isolated vertices included, nothing a mesh would produce
// required — one sweep of SmoothGatherSoAKernel over the rows in edge order
// is SmoothAccum followed by SmoothCombine bit for bit, and it writes
// nothing outside the range [lo,hi) it is asked for.
func TestQuickSmoothGatherIsTheEdgeForm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 1 + rng.Intn(80)
		edges := make([][2]int32, rng.Intn(6*nv))
		for i := range edges {
			edges[i] = [2]int32{int32(rng.Intn(nv)), int32(rng.Intn(nv))}
		}
		rhs, cur := make([]State, nv), make([]State, nv)
		for i := range cur {
			for k := range cur[i] {
				rhs[i][k], cur[i][k] = rng.NormFloat64(), 1e3*rng.NormFloat64()
			}
		}
		eps := rng.Float64()
		deg := make([]int32, nv)
		for _, e := range edges {
			deg[e[0]]++
			deg[e[1]]++
		}
		want := make([]State, nv)
		SmoothAccum(edges, cur, want)
		SmoothCombine(rhs, want, deg, eps)

		start, adj := rowsInEdgeOrder(nv, edges)
		lo := rng.Intn(nv + 1)
		hi := lo + rng.Intn(nv-lo+1)
		poison := State{math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()}
		got := make([]State, nv)
		for i := range got {
			got[i] = poison // no zeroing needed: every slot in [lo,hi) is overwritten
		}
		SmoothGatherSoAKernel(Block(&rhs), Block(&cur), Block(&got), start, adj, eps, lo, hi)
		for i := range got {
			in := lo <= i && i < hi
			if in && got[i] != want[i] {
				return false
			}
			if !in && !math.IsNaN(got[i][0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
