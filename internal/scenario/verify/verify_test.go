package verify

import (
	"slices"
	"testing"

	"eul3d/internal/scenario"
	"eul3d/internal/solver"
)

// TestScenarioPhysics runs every registered preset on the full engine
// panel and checks the analytic assertions: L1 density error under the
// committed tolerance, positive density/pressure, finite fields, and the
// preset's probe. A pooled engine must additionally be bitwise its
// sequential kind at every worker count — the sm rows the single row's
// diagnostics and residual history, the smmg row the mg row's.
func TestScenarioPhysics(t *testing.T) {
	sequentialOf := map[string]string{solver.KindSM: solver.KindSingle, solver.KindSMMG: solver.KindMG}
	for _, name := range scenario.Names() {
		sc, err := scenario.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			type outcome struct {
				d       scenario.Diagnostics
				history []float64
			}
			ref := map[string]outcome{}
			for _, e := range Engines(sc) {
				e := e
				t.Run(e.String(), func(t *testing.T) {
					d, res, err := Run(sc, e)
					if err != nil {
						t.Fatal(err)
					}
					t.Logf("%s on %s: cycles=%d finalNorm=%.6e L1=%.6g minRho=%.4g minP=%.4g probe=%.6g (want %.6g)",
						name, e, res.Cycles, d.FinalNorm, d.L1Density, d.Min[0], d.MinPressure, d.ProbeGot, d.ProbeWant)
					if err := sc.Check(d); err != nil {
						t.Error(err)
					}
					seq, pooled := sequentialOf[e.Kind]
					if !pooled {
						ref[e.Kind] = outcome{d, res.History}
						return
					}
					want, ok := ref[seq]
					if !ok {
						t.Fatalf("no %s row ran before %s", seq, e)
					}
					if d != want.d || !slices.Equal(res.History, want.history) {
						t.Errorf("%s differs from %s:\n  %s: %+v\n  %s: %+v", e, seq, e, d, seq, want.d)
					}
				})
			}
		})
	}
}
