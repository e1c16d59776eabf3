package adapt

import (
	"testing"

	"eul3d/internal/dmsolver"
	"eul3d/internal/euler"
	"eul3d/internal/meshgen"
	"eul3d/internal/runloop"
	"eul3d/internal/solver"
)

// TestEntryPointsAgree: the three entry points are three steppers under one
// loop, so the same tiny channel, parameters and cycle count through the
// sequential driver, the distributed one on a single processor and the
// adaptive one with no epoch due must give one answer — histories and
// final solutions bitwise, summaries equal. Twice: to the cycle limit, and
// to a tolerance met on the way.
func TestEntryPointsAgree(t *testing.T) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(8, 4, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	p := euler.DefaultParams(0.5, 0)
	const cycles = 12

	for _, tol := range []float64{0, 0.9} {
		sres, err := solver.NewSingleGrid(m, p).Run(solver.Options{MaxCycles: cycles, Tolerance: tol})
		if err != nil {
			t.Fatal(err)
		}
		if tol > 0 && (!sres.Converged || sres.Cycles == cycles) {
			t.Fatalf("tolerance %g is not met inside %d cycles; the row tests nothing", tol, cycles)
		}

		dm, err := dmsolver.NewSingle(m, make([]int32, m.NV()), 1, p)
		if err != nil {
			t.Fatal(err)
		}
		dres, err := dm.Run(dmsolver.RunOptions{MaxCycles: cycles, Tolerance: tol})
		if err != nil {
			t.Fatal(err)
		}

		init := make([]euler.State, m.NV())
		for i := range init {
			init[i] = p.Freestream
		}
		ares, err := Run(Options{Mesh: m, Init: init, Params: p, Steps: cycles, Tolerance: tol, Interval: 10 * cycles})
		if err != nil {
			t.Fatal(err)
		}
		if len(ares.Epochs) != 0 || ares.Steps != ares.Cycles {
			t.Fatalf("adaptive run: %d epochs, %d steps for %d cycles", len(ares.Epochs), ares.Steps, ares.Cycles)
		}

		for name, got := range map[string]*runloop.Result{"dmsolver": &dres.Result, "adapt": &ares.Result} {
			if got.Cycles != sres.Cycles || got.InitialNorm != sres.InitialNorm || got.FinalNorm != sres.FinalNorm ||
				got.Converged != sres.Converged || got.Ordersof10 != sres.Ordersof10 {
				t.Errorf("tol %g: %s summary %d cycles %g -> %g converged=%v, solver %d cycles %g -> %g converged=%v", tol, name,
					got.Cycles, got.InitialNorm, got.FinalNorm, got.Converged,
					sres.Cycles, sres.InitialNorm, sres.FinalNorm, sres.Converged)
			}
			if len(got.History) != len(sres.History) || len(got.FineSolution) != len(sres.FineSolution) {
				t.Fatalf("tol %g: %s has %d history entries and %d states, solver %d and %d", tol, name,
					len(got.History), len(got.FineSolution), len(sres.History), len(sres.FineSolution))
			}
			for i := range sres.History {
				if got.History[i] != sres.History[i] {
					t.Fatalf("tol %g: %s history[%d] = %.17g, solver %.17g", tol, name, i, got.History[i], sres.History[i])
				}
			}
			for i := range sres.FineSolution {
				if got.FineSolution[i] != sres.FineSolution[i] {
					t.Fatalf("tol %g: %s solution vertex %d differs from solver's", tol, name, i)
				}
			}
		}
	}
}
