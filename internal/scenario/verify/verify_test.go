package verify

import (
	"testing"

	"eul3d/internal/scenario"
	"eul3d/internal/solver"
)

// TestScenarioPhysics runs every registered preset on the full engine
// panel and checks the analytic assertions: L1 density error under the
// committed tolerance, positive density/pressure, finite fields, and the
// preset's probe. The pooled engine must additionally produce
// bitwise-identical diagnostics at every worker count — that contract
// holds on any mesh, canonical or not.
func TestScenarioPhysics(t *testing.T) {
	for _, name := range scenario.Names() {
		sc, err := scenario.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			var smRef *scenario.Diagnostics
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
					if e.Kind == solver.KindSM {
						if smRef == nil {
							smRef = &d
						} else if *smRef != d {
							t.Errorf("pooled diagnostics differ across worker counts:\n  w1: %+v\n  w%d: %+v", *smRef, e.Workers, d)
						}
					}
				})
			}
		})
	}
}
