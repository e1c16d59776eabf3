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
		if tr.PhaseName(ev.Phase) == "sweep" {
			sweeps[euler.SweepParts(ev.Arg)]++
		}
	}
	for parts, stages := range map[euler.SweepParts]int{
		euler.PartLam | euler.PartConv | euler.PartDiss1: 1,
		euler.PartConv | euler.PartDiss1:                 euler.DissipStages - 1,
		euler.PartConv:                                   len(s.D.P.Stages) - euler.DissipStages,
	} {
		if sweeps[parts] != stages {
			t.Errorf("w0 has %d sweep spans with parts %03b, want one a stage: %d", sweeps[parts], parts, stages)
		}
	}
	for _, wtk := range []string{"w0", "w1", "w2"} {
		if count(byName[wtk], "sweep") == 0 {
			t.Errorf("track %s has no sweep kernel spans", wtk)
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

// regions counts the parallel regions a traced engine ran: every region
// runs worker 0's share on the caller (forkjoin.Pool.Fork), so each is one
// kernel span on track w0.
func regions(tr *trace.Tracer) int {
	n := 0
	for _, tk := range tr.Tracks() {
		if tk.Name() != "w0" {
			continue
		}
		for _, ev := range tk.Events() {
			if tr.PhaseName(ev.Phase) != "barrier" {
				n++
			}
		}
	}
	return n
}

// TestRegionBudget pins the fork/join regions of a single-grid step and of
// a 4-level W-cycle at two workers, counted on the traced path and derived
// from the schedule's own structure, so that a change that adds regions has
// to say so here. Ownership makes the count independent of the mesh: a
// stage's edge and face sweeps are one region, as is dissipation pass 2.
// With the block-colored layout each sweep took one region per color group,
// and the benchmark's 64x32x20 mesh cost 82 regions a step and 1,415 a
// 4-level W-cycle.
func TestRegionBudget(t *testing.T) {
	p := euler.DefaultParams(0.675, 0)
	// A step: the init sweep; per stage the sweep, the combine, the
	// smoothing sweeps and the update; the norm on stage 0; the switch and
	// pass 2 on each dissipation stage.
	step := 1 + len(p.Stages)*(3+p.NSmooth) + 1 + 2*euler.DissipStages
	// The residual's init, sweep, switch, pass 2 and combine; a restriction's
	// two residuals, interpolation, repair, scatter and forcing; a
	// correction's delta, interpolation, smoothing and guarded apply. A
	// fresh step leaves out the four regions before its first combine,
	// which the restriction's coarse residual ran.
	residual := 5
	restrict := 2*residual + 4
	correct := 3 + p.NSmooth
	fresh := step - 4
	if step != 31 {
		t.Fatalf("a five-stage step with %d smoothing sweeps schedules %d regions, not 31", p.NSmooth, step)
	}

	m := testMesh(t)
	s, err := New(m, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr := trace.New(4096)
	s.SetTrace(tr)
	w := make([]euler.State, m.NV())
	s.InitUniform(w)
	s.Step(w, nil)
	if got := regions(tr); got != step {
		t.Errorf("a step ran %d regions, want %d", got, step)
	}

	const levels, gamma = 4, 2
	meshes, err := meshgen.Sequence(meshgen.DefaultChannel(16, 8, 8, 17), levels)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := NewMultigrid(meshes, p, gamma, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()
	tr = trace.New(8192)
	mg.SetTrace(tr)
	mg.Cycle()
	// multigrid.Cycle: a visit steps, and off the coarsest level restricts,
	// visits the next level gamma times (once when that is the coarsest),
	// the first time fresh, and corrects.
	var want func(l int, isFresh bool) int
	want = func(l int, isFresh bool) int {
		n := step
		if isFresh {
			n = fresh
		}
		if l == levels-1 {
			return n
		}
		visits := gamma
		if l+1 == levels-1 {
			visits = 1
		}
		n += restrict + correct
		for v := 0; v < visits; v++ {
			n += want(l+1, v == 0)
		}
		return n
	}
	if got := regions(tr); got != want(0, false) || got != 446 {
		t.Errorf("a 4-level W-cycle ran %d regions, want %d (446)", got, want(0, false))
	}
}
