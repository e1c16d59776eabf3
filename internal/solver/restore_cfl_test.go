package solver

import (
	"strings"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/meshgen"
	"eul3d/internal/meshio"
)

// A checkpoint records the CFL it was written at, and an engine's CFL is
// fixed when it is built: Restore honours a checkpoint that agrees (or
// records none) and rejects one that does not — the distributed solver's
// watchdog writes checkpoints at a backed-off CFL, and continuing such a
// run at the CFL it diverged at is not a resume.
func TestRestoreRejectsForeignCFL(t *testing.T) {
	m, err := meshgen.Channel(*smallMesh(t))
	if err != nil {
		t.Fatal(err)
	}
	p := euler.DefaultParams(0.5, 0)
	ref, err := NewSingleGrid(m, p).Run(Options{MaxCycles: 3})
	if err != nil {
		t.Fatal(err)
	}
	ck := &meshio.Checkpoint{Cycle: 3, History: ref.History, Sol: ref.FineSolution}
	for _, cfl := range []float64{0, p.CFL} {
		ck.CFL = cfl
		if err := NewSingleGrid(m, p).Restore(ck); err != nil {
			t.Errorf("checkpoint at CFL %g rejected by an engine at %g: %v", cfl, p.CFL, err)
		}
	}
	ck.CFL = p.CFL / 2
	st := NewSingleGrid(m, p)
	if err := st.Restore(ck); err == nil || !strings.Contains(err.Error(), "CFL") {
		t.Fatalf("checkpoint at CFL %g restored into an engine at %g: %v", ck.CFL, p.CFL, err)
	}
	// The rejected checkpoint left nothing behind: the engine runs from scratch.
	res, err := st.Run(Options{MaxCycles: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.History {
		if res.History[i] != ref.History[i] {
			t.Fatalf("history[%d] = %g after a rejected Restore, %g fresh", i, res.History[i], ref.History[i])
		}
	}
}
