package euler

import (
	"testing"

	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
)

// TestResidualZeroAllocs: Residual runs on Disc-owned scratch — it used to
// allocate a fresh dissipation buffer on every call, which showed up in the
// multigrid forcing construction once per level pair per cycle.
func TestResidualZeroAllocs(t *testing.T) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(8, 5, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDisc(m, DefaultParams(0.5, 0))
	w := make([]State, m.NV())
	d.InitUniform(w)
	res := make([]State, m.NV())
	d.Residual(w, nil, res) // warm-up
	if n := testing.AllocsPerRun(5, func() { d.Residual(w, nil, res) }); n != 0 {
		t.Errorf("Residual allocates %v times per call, want 0", n)
	}
}

// TestStepEmptyMesh: the sequential RK driver and the residual smoother
// must tolerate a zero-vertex mesh without panicking.
func TestStepEmptyMesh(t *testing.T) {
	m := &mesh.Mesh{}
	if err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	d := NewDisc(m, DefaultParams(0.5, 0))
	ws := NewStepWorkspace(0)
	var w []State
	d.InitUniform(w)
	if norm := d.Step(w, nil, ws); norm != 0 {
		t.Errorf("empty-mesh step norm = %v, want 0", norm)
	}
	d.SmoothResiduals(nil)
}
