package scenario_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"eul3d/internal/scenario"
	"eul3d/internal/scenario/verify"
)

var update = flag.Bool("update", false, "regenerate the golden scenario diagnostics under testdata/")

// goldenRelTol is the drift budget of the golden comparison. The solver is
// bitwise deterministic on a fixed platform, so any drift at all means the
// numerics changed; the tolerance only forgives float formatting and
// cross-platform libm differences, not physics.
const goldenRelTol = 1e-9

// TestGoldenDiagnostics runs every preset on the sequential engine and
// compares the full diagnostics record — final residual norm, L1 density
// error, per-field min/max — against the committed golden file. Run with
// -update after an intentional numerics change to regenerate.
func TestGoldenDiagnostics(t *testing.T) {
	for _, name := range scenario.Names() {
		sc, err := scenario.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			got, _, err := verify.Run(sc, verify.Engine{})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", name+".json")
			if *update {
				buf, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to generate): %v", err)
			}
			var want scenario.Diagnostics
			if err := json.Unmarshal(buf, &want); err != nil {
				t.Fatalf("corrupt golden file %s: %v", path, err)
			}
			if err := diffDiagnostics(got, want); err != nil {
				t.Errorf("drift against %s: %v\ngot:  %+v\nwant: %+v", path, err, got, want)
			}
		})
	}
}

func diffDiagnostics(got, want scenario.Diagnostics) error {
	if got.Scenario != want.Scenario {
		return fmt.Errorf("scenario name %q vs %q", got.Scenario, want.Scenario)
	}
	check := func(field string, g, w float64) error {
		diff := math.Abs(g - w)
		scale := math.Max(math.Abs(w), 1e-300)
		if diff/scale > goldenRelTol {
			return fmt.Errorf("%s drifted: got %.17g, want %.17g (rel %.3g)", field, g, w, diff/scale)
		}
		return nil
	}
	if err := check("final_norm", got.FinalNorm, want.FinalNorm); err != nil {
		return err
	}
	if err := check("l1_density", got.L1Density, want.L1Density); err != nil {
		return err
	}
	if err := check("min_pressure", got.MinPressure, want.MinPressure); err != nil {
		return err
	}
	for k := range got.Min {
		if err := check(fmt.Sprintf("min[%d]", k), got.Min[k], want.Min[k]); err != nil {
			return err
		}
		if err := check(fmt.Sprintf("max[%d]", k), got.Max[k], want.Max[k]); err != nil {
			return err
		}
	}
	if got.ProbeLabel != want.ProbeLabel {
		return fmt.Errorf("probe label %q vs %q", got.ProbeLabel, want.ProbeLabel)
	}
	if got.ProbeLabel != "" {
		if err := check("probe_got", got.ProbeGot, want.ProbeGot); err != nil {
			return err
		}
		if err := check("probe_want", got.ProbeWant, want.ProbeWant); err != nil {
			return err
		}
	}
	return nil
}
