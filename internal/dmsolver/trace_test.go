package dmsolver

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eul3d/internal/simnet"
	"eul3d/internal/trace"
)

// phaseCounts tallies phase names over one track.
func phaseCounts(tr *trace.Tracer, tk *trace.Track) map[string]int {
	out := map[string]int{}
	for _, ev := range tk.Events() {
		out[tr.PhaseName(ev.Phase)]++
	}
	return out
}

func traceTracks(tr *trace.Tracer) map[string]*trace.Track {
	out := map[string]*trace.Track{}
	for _, tk := range tr.Tracks() {
		out[tk.Name()] = tk
	}
	return out
}

// TestTracedSequentialCycle checks the sequential orchestration's comm
// timeline: collective spans interleaved with the gap-filling compute
// spans on the "comm" track, and the replayed schedule-build spans.
func TestTracedSequentialCycle(t *testing.T) {
	s := chaosSolver(t)
	tr := trace.New(2048)
	s.SetTrace(tr)
	if _, err := s.Cycle(); err != nil {
		t.Fatal(err)
	}
	tks := traceTracks(tr)
	if tks["comm"] == nil || tks["build"] == nil || tks["events"] == nil {
		t.Fatalf("missing tracks; have %v", len(tr.Tracks()))
	}
	comm := phaseCounts(tr, tks["comm"])
	for _, ph := range []string{"gather-states", "scatter-states", "compute"} {
		if comm[ph] == 0 {
			t.Errorf("comm track has no %q spans (%v)", ph, comm)
		}
	}
	build := phaseCounts(tr, tks["build"])
	if build["schedule-build"] == 0 {
		t.Errorf("build track has no schedule-build spans (%v)", build)
	}
}

// TestTracedConcurrentCycle checks the MIMD timeline: every simulated
// processor's track carries send/recv exchange halves, barrier waits and
// compute spans — the per-node comm/comp breakdown of the Delta port.
func TestTracedConcurrentCycle(t *testing.T) {
	s := chaosSolver(t)
	tr := trace.New(4096)
	s.SetTrace(tr)
	if _, err := s.CycleConcurrent(); err != nil {
		t.Fatal(err)
	}
	tks := traceTracks(tr)
	for _, name := range []string{"p0", "p1", "p2"} {
		tk := tks[name]
		if tk == nil {
			t.Fatalf("missing processor track %s", name)
		}
		got := phaseCounts(tr, tk)
		for _, ph := range []string{"send-gather", "recv-gather", "send-scatter", "recv-scatter", "barrier", "compute"} {
			if got[ph] == 0 {
				t.Errorf("track %s has no %q spans (%v)", name, ph, got)
			}
		}
	}
	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Validate(strings.NewReader(b.String())); err != nil {
		t.Fatalf("export fails Validate: %v", err)
	}
}

// TestIncidentDumpOnCrash is the flight-recorder acceptance path: a seeded
// node crash must fire an automatic dump whose ring contains the events
// leading up to the recovery — exchange spans before the crash plus the
// node-crash and recovery instants.
func TestIncidentDumpOnCrash(t *testing.T) {
	s := chaosSolver(t)
	s.Fabric.SetFaultPlan(simnet.NewFaultPlan(
		simnet.FaultEvent{Kind: simnet.FaultCrash, Node: 1, Cycle: 4}))
	tr := trace.New(1024)
	s.SetTrace(tr)

	dump := filepath.Join(t.TempDir(), "incident.json")
	var log bytes.Buffer
	res, err := s.Run(RunOptions{MaxCycles: 8, CheckpointEvery: 2, IncidentPath: dump, Log: &log})
	if err != nil {
		t.Fatalf("run failed: %v\nlog:\n%s", err, log.String())
	}
	if res.Recoveries != 1 {
		t.Fatalf("expected 1 recovery, got %d", res.Recoveries)
	}
	if !strings.Contains(log.String(), "incident trace dumped") {
		t.Errorf("dump not reported in log:\n%s", log.String())
	}

	f, err := os.Open(dump)
	if err != nil {
		t.Fatalf("incident dump missing: %v", err)
	}
	defer f.Close()
	if n, err := trace.Validate(f); err != nil {
		t.Fatalf("incident dump fails Validate: %v", err)
	} else if n == 0 {
		t.Fatal("incident dump is empty")
	}

	// The events track must hold the incident markers, and the comm ring
	// the exchanges leading up to them.
	tks := traceTracks(tr)
	events := phaseCounts(tr, tks["events"])
	if events["node-crash"] == 0 || events["recovery"] == 0 {
		t.Errorf("events track missing crash/recovery instants (%v)", events)
	}
	if events["checkpoint"] == 0 {
		t.Errorf("events track missing checkpoint instants (%v)", events)
	}
	comm := phaseCounts(tr, tks["comm"])
	if comm["gather-states"] == 0 {
		t.Errorf("comm ring does not hold the exchanges before the incident (%v)", comm)
	}
}
