package smsolver

import (
	"strings"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/meshgen"
	"eul3d/internal/trace"
)

// TestTracedStepZeroAlloc is the overhead-budget gate: attaching the
// flight recorder must not cost the step loop a single heap allocation.
func TestTracedStepZeroAlloc(t *testing.T) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(12, 8, 6, 17))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(m, euler.DefaultParams(0.675, 0), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr := trace.New(1024)
	s.SetTrace(tr)
	w := make([]euler.State, m.NV())
	s.InitUniform(w)
	s.Step(w, nil) // warm the worker stacks and the phase table
	if n := testing.AllocsPerRun(5, func() { s.Step(w, nil) }); n != 0 {
		t.Fatalf("traced Step allocates %v times per run, want 0", n)
	}
}

// TestTracedStepTracks checks the timeline shape: one track per worker
// with kernel and barrier spans, plus the orchestrator's phase track with
// RK stages, and a valid Chrome export.
func TestTracedStepTracks(t *testing.T) {
	// Large enough that every chunked loop engages all three workers
	// (loops shorter than minChunk·workers run on fewer workers).
	m, err := meshgen.Channel(meshgen.DefaultChannel(24, 12, 8, 17))
	if err != nil {
		t.Fatal(err)
	}
	for k, name := range taskNames {
		if name == "" {
			t.Errorf("taskKind %d has no trace name", k)
		}
	}
	const nw = 3
	s, err := New(m, euler.DefaultParams(0.675, 0), nw)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr := trace.New(4096)
	s.SetTrace(tr)
	w := make([]euler.State, m.NV())
	s.InitUniform(w)
	s.Step(w, nil)

	byName := map[string]*trace.Track{}
	for _, tk := range tr.Tracks() {
		byName[tk.Name()] = tk
	}
	for _, want := range []string{"phases", "w0", "w1", "w2"} {
		if byName[want] == nil {
			t.Fatalf("missing track %q (have %d tracks)", want, len(tr.Tracks()))
		}
	}
	count := func(tk *trace.Track, phase string) int {
		n := 0
		for _, ev := range tk.Events() {
			if tr.PhaseName(ev.Phase) == phase {
				n++
			}
		}
		return n
	}
	if n := count(byName["phases"], "rk-stage"); n != len(euler.DefaultParams(0.675, 0).Stages) {
		t.Errorf("phases track has %d rk-stage spans, want %d", n, len(euler.DefaultParams(0.675, 0).Stages))
	}
	if count(byName["phases"], "step") != 1 {
		t.Error("phases track missing the step span")
	}
	// The fused sweep's spans carry the part set: stage 0's has the spectral
	// radii, the dissipation stages the first pass, the rest only the flux.
	sweeps := map[euler.SweepParts]int{}
	for _, ev := range byName["w0"].Events() {
		if tr.PhaseName(ev.Phase) == "conv-edges" {
			sweeps[euler.SweepParts(ev.Arg)]++
		}
	}
	ne, _ := s.NumColors()
	for parts, stages := range map[euler.SweepParts]int{
		euler.PartLam | euler.PartConv | euler.PartDiss1: 1,
		euler.PartConv | euler.PartDiss1:                 euler.DissipStages - 1,
		euler.PartConv:                                   len(s.D.P.Stages) - euler.DissipStages,
	} {
		if sweeps[parts] != stages*ne {
			t.Errorf("w0 has %d conv-edges spans with parts %03b, want %d stages x %d colors", sweeps[parts], parts, stages, ne)
		}
	}
	for _, wtk := range []string{"w0", "w1", "w2"} {
		if count(byName[wtk], "conv-edges") == 0 {
			t.Errorf("track %s has no conv-edges kernel spans", wtk)
		}
		if count(byName[wtk], "smooth-gather") == 0 {
			t.Errorf("track %s has no smooth-gather kernel spans", wtk)
		}
		if count(byName[wtk], "barrier") == 0 {
			t.Errorf("track %s has no barrier spans", wtk)
		}
	}

	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if n, err := trace.Validate(strings.NewReader(b.String())); err != nil {
		t.Fatalf("export fails Validate: %v", err)
	} else if n == 0 {
		t.Fatal("export has no events")
	}
}

// TestTracedMultigridCycle checks the pooled multigrid's traced cycle:
// level-entry instants for every visit of a W-cycle, per-level transfer
// spans on the orchestrator track, and zero allocations at steady state.
func TestTracedMultigridCycle(t *testing.T) {
	meshes, err := meshgen.Sequence(meshgen.DefaultChannel(12, 8, 6, 17), 3)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := NewMultigrid(meshes, euler.DefaultParams(0.675, 0), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()
	tr := trace.New(8192)
	mg.SetTrace(tr)
	mg.Cycle() // warm
	if n := testing.AllocsPerRun(3, func() { mg.Cycle() }); n != 0 {
		t.Fatalf("traced Cycle allocates %v times per run, want 0", n)
	}

	var orch *trace.Track
	for _, tk := range tr.Tracks() {
		if tk.Name() == "phases" {
			orch = tk
		}
	}
	if orch == nil {
		t.Fatal("missing phases track")
	}
	visits := map[int64]int{}
	transfers := 0
	for _, ev := range orch.Events() {
		switch tr.PhaseName(ev.Phase) {
		case "enter-level":
			visits[ev.Arg]++
		case "L0 transfers", "L1 transfers":
			transfers++
		}
	}
	// One W-cycle on 3 levels visits L0 once, L1 twice (gamma=2), and L2
	// twice (once per L1 visit; the coarsest grid is never revisited).
	// The ring is large enough to retain the full last cycle.
	if visits[0] == 0 || visits[1] != 2*visits[0] || visits[2] != visits[1] {
		t.Errorf("level visit instants %v do not match a gamma=2 cycle", visits)
	}
	if transfers == 0 {
		t.Error("no transfer spans on the phases track")
	}
}
