package serve

import (
	"strings"
	"testing"

	"eul3d/internal/scenario"
)

// TestScenarioSpecValidate pins the scenario branch of JobSpec.Validate:
// defaults from the preset, mutual exclusion with explicit mesh/flow
// fields, and the multigrid level clamp.
func TestScenarioSpecValidate(t *testing.T) {
	sod, err := scenario.Get("sod")
	if err != nil {
		t.Fatal(err)
	}

	s := JobSpec{Scenario: "sod"}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Cycles != sod.Steps || s.Tol != sod.Tol {
		t.Fatalf("defaults not taken from preset: cycles=%d tol=%g, want %d/%g", s.Cycles, s.Tol, sod.Steps, sod.Tol)
	}

	// Unsteady preset on the multigrid: levels clamp to 1 instead of
	// being rejected (a 1-level cycle is one time-accurate step).
	s = JobSpec{Scenario: "sod", Engine: KindMG}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Levels != 1 {
		t.Fatalf("unsteady mg levels = %d, want clamp to 1", s.Levels)
	}

	for name, bad := range map[string]JobSpec{
		"unknown scenario":  {Scenario: "nope", Cycles: 1},
		"scenario and mesh": {Scenario: "sod", Mesh: MeshSpec{NX: 4, NY: 2, NZ: 2}},
		"scenario and mach": {Scenario: "sod", Mach: 0.5},
	} {
		bad := bad
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: expected a validation error", name)
		}
	}
}

// TestScenarioJobDiagnostics runs the sod preset through the scheduler on
// the sequential and pooled engines: the completed jobs must carry
// diagnostics that pass the preset's physics check, agree bitwise across
// engines, and the engine cache must key on the scenario (two sod jobs
// share an engine; a pulse job must not).
func TestScenarioJobDiagnostics(t *testing.T) {
	s := NewScheduler(Config{QueueCap: 8, Runners: 1, WorkerBudget: 8, CacheCap: 4})
	defer s.Stop()

	sod, err := scenario.Get("sod")
	if err != nil {
		t.Fatal(err)
	}

	run := func(spec JobSpec) JobView {
		t.Helper()
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, StateCompleted)
		v := j.View()
		if v.Diagnostics == nil {
			t.Fatalf("completed scenario job has no diagnostics: %+v", v)
		}
		return v
	}

	seq := run(JobSpec{Scenario: "sod"})
	if err := sod.Check(*seq.Diagnostics); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(seq.Engine, "w1/") {
		t.Fatalf("engine key %q, want one worker", seq.Engine)
	}

	// Same preset again: engine cache hit, bitwise-identical diagnostics.
	again := run(JobSpec{Scenario: "sod"})
	if again.CacheHit == nil || !*again.CacheHit {
		t.Fatalf("second sod job missed the engine cache: %+v", again)
	}
	if *again.Diagnostics != *seq.Diagnostics {
		t.Fatalf("sod diagnostics differ across runs:\n  %+v\n  %+v", *seq.Diagnostics, *again.Diagnostics)
	}

	// Pooled engine: bitwise the sequential one at every worker count, so
	// its diagnostics are the sequential job's and pass the same physics
	// check.
	sm2 := run(JobSpec{Scenario: "sod", Engine: KindSM, Workers: 2})
	sm8 := run(JobSpec{Scenario: "sod", Engine: KindSM, Workers: 8})
	for _, sm := range []JobView{sm2, sm8} {
		if *sm.Diagnostics != *seq.Diagnostics {
			t.Fatalf("pooled diagnostics differ from the sequential engine's:\n  pooled: %+v\n  single: %+v", *sm.Diagnostics, *seq.Diagnostics)
		}
	}

	// A different preset must not share the sod engine key.
	pulse := run(JobSpec{Scenario: "pulse"})
	if pulse.Engine == seq.Engine {
		t.Fatalf("pulse and sod share engine key %q", pulse.Engine)
	}
	if pulse.Diagnostics.Scenario != "pulse" {
		t.Fatalf("pulse diagnostics tagged %q", pulse.Diagnostics.Scenario)
	}
}
