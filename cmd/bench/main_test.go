package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The committed BENCHMARK.json must be what -manifest prints, and must stay
// inside the limits its reader enforces.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := buildManifest()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the registry; regenerate it with `go run . -manifest`")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is malformed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range want.Workloads {
		name(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	var setup, largest float64
	for _, m := range want.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("unit %q of %s is malformed", m.Unit, m.Name)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("bound %v of %s is outside (0, 0.25]", m.Bound, m.Name)
		}
		largest = max(largest, m.Bound)
		if m.Name == "setup_s" {
			setup = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s and better lower")
			}
		}
	}
	if setup == 0 || setup < largest {
		t.Errorf("setup_s must exist and have the largest bound (%v < %v)", setup, largest)
	}
	for _, m := range want.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("unit %q of %s is malformed", m.Unit, m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("better %q of %s", m.Better, m.Name)
		}
	}
	if want.RunSeconds < 1 || want.RunSeconds > 60 {
		t.Errorf("run_seconds %d", want.RunSeconds)
	}
}

// Every workload, at the -smoke size, must emit exactly the declared
// end-to-end names untraced and exactly the declared per-layer names traced,
// with every gate passing.
func TestSmokeEmitsEveryDeclaredMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			label, defs := w.Name+"/untraced", endToEnd
			if traced {
				label, defs = w.Name+"/traced", perLayer
			}
			t.Run(label, func(t *testing.T) {
				t.Parallel()
				out, rep, err := run(config{workload: w.Name, seed: 3, seconds: 0.4, trace: traced, smoke: true})
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d: %v", out.Correct, out.Attempted, out.Failed, rep.Failures)
				}
				if len(out.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, %d declared", len(out.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := out.Metrics[d.Name]
					if !ok {
						t.Errorf("%s not emitted", d.Name)
					} else if m.Unit != d.Unit {
						t.Errorf("%s emitted in %q, declared in %q", d.Name, m.Unit, d.Unit)
					}
				}
				if traced {
					if _, err := os.Stat(rep.Trace); err != nil {
						t.Errorf("trace file: %v", err)
					}
				}
			})
		}
	}
}

func TestUnknownWorkloadIsRefused(t *testing.T) {
	if _, _, err := run(config{workload: "nope", seconds: 1}); err == nil {
		t.Error("unknown workload accepted")
	}
}
