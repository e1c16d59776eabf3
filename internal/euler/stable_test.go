package euler

import (
	"math"
	"math/rand"
	"testing"

	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/refine"
)

// minStableDtReference is MinStableDt on the reference operator —
// Pressures, then SpectralRadii over the mesh's edges and faces — the
// oracle the kernel form is held to.
func minStableDtReference(m *mesh.Mesh, p Params, w []State) float64 {
	nv := m.NV()
	pres := make([]float64, nv)
	lam := make([]float64, nv)
	Pressures(p.Gas, w, pres)
	SpectralRadii(p.Gas, m.Edges, m.EdgeNorm, m.BFaces, w, pres, lam)
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

// TestMinStableDtMatchesReference holds MinStableDt bit for bit to the
// reference form on a jittered channel and on a selectively refined one
// (green closures, appended vertices), each over several perturbed fields,
// and checks that it leaves the solution untouched.
func TestMinStableDtMatchesReference(t *testing.T) {
	jittered, err := meshgen.Channel(meshgen.DefaultChannel(8, 5, 4, 7))
	if err != nil {
		t.Fatal(err)
	}
	marked := make([]bool, jittered.NT())
	for i := 0; i < len(marked); i += 4 {
		marked[i] = true
	}
	r, err := refine.Selective(jittered, marked)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(0.675, 0)
	rng := rand.New(rand.NewSource(3))
	for name, m := range map[string]*mesh.Mesh{"jittered": jittered, "refined": r.Mesh} {
		for rep := 0; rep < 3; rep++ {
			w := make([]State, m.NV())
			for i := range w {
				w[i] = p.Gas.FromPrimitive(1+0.2*rng.Float64(), 0.5+0.3*rng.Float64(),
					0.1*rng.Float64()-0.05, 0.1*rng.Float64()-0.05, 0.7+0.2*rng.Float64())
			}
			before := append([]State(nil), w...)
			got, want := MinStableDt(m, p, w), minStableDtReference(m, p, w)
			if math.Float64bits(got) != math.Float64bits(want) || math.IsInf(got, 0) {
				t.Errorf("%s field %d: MinStableDt %v, reference %v", name, rep, got, want)
			}
			for i := range w {
				if w[i] != before[i] {
					t.Fatalf("%s: MinStableDt wrote the solution at vertex %d", name, i)
				}
			}
		}
	}
}
