package euler

import (
	"math/rand"
	"testing"

	"eul3d/internal/meshgen"
)

// kernelFixture builds a disc with a perturbed field so every kernel does
// nontrivial work.
func kernelFixture(t *testing.T) (*Disc, []State) {
	t.Helper()
	m, err := meshgen.Channel(meshgen.DefaultChannel(8, 5, 4, 7))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDisc(m, DefaultParams(0.675, 0))
	w := make([]State, m.NV())
	rng := rand.New(rand.NewSource(2))
	g := d.P.Gas
	for i := range w {
		w[i] = g.FromPrimitive(1+0.1*rng.Float64(), 0.5+0.1*rng.Float64(),
			0.05*rng.Float64(), 0.05*rng.Float64(), 0.7+0.1*rng.Float64())
	}
	d.computePressures(w)
	return d, w
}

// identity returns the index list 0..n-1: driven over it, a range kernel
// visits the mesh in the reference operator's order.
func identity(n int) []int32 {
	ix := make([]int32, n)
	for i := range ix {
		ix[i] = int32(i)
	}
	return ix
}

func TestScratchAccessors(t *testing.T) {
	d, _ := kernelFixture(t)
	nv := d.M.NV()
	for name, n := range map[string]int{
		"lam": len(d.Lam()), "sensor": len(d.Sensor()), "den": len(d.Den()),
	} {
		if n != nv {
			t.Errorf("%s accessor returned %d entries, want %d", name, n, nv)
		}
	}
}
