package verify

import (
	"slices"
	"testing"

	"eul3d/internal/scenario"
)

// TestScenarioPhysics runs every registered preset on the full engine
// panel and checks the analytic assertions: L1 density error under the
// committed tolerance, positive density/pressure, finite fields, and the
// preset's probe. Each row must additionally be bitwise the first row of
// its grid shape, whatever its worker count — the sm rows the single row's
// diagnostics and residual history, the smmg row the mg row's.
func TestScenarioPhysics(t *testing.T) {
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
			type first struct {
				outcome
				e Engine
			}
			ref := map[bool]first{} // by grid shape: multigrid or not
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
					want, ok := ref[e.Gamma > 0]
					if !ok {
						ref[e.Gamma > 0] = first{outcome{d, res.History}, e}
						return
					}
					if d != want.d || !slices.Equal(res.History, want.history) {
						t.Errorf("%s differs from %s:\n  %s: %+v\n  %s: %+v", e, want.e, e, d, want.e, want.d)
					}
				})
			}
		})
	}
}
