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

// exchangeSpans is what every worker's track carries over a cycle: both
// halves of both directions, the barrier waits between them and the
// compute gaps.
var exchangeSpans = []string{"send-gather", "recv-gather", "send-scatter", "recv-scatter", "barrier", "compute"}

// checkTracks fails unless the tracer holds exactly the worker tracks
// named, each with every exchange span.
func checkTracks(t *testing.T, tr *trace.Tracer, names ...string) {
	t.Helper()
	tks := traceTracks(tr)
	for _, name := range names {
		tk := tks[name]
		if tk == nil {
			t.Fatalf("missing worker track %s", name)
		}
		got := phaseCounts(tr, tk)
		for _, ph := range exchangeSpans {
			if got[ph] == 0 {
				t.Errorf("track %s has no %q spans (%v)", name, ph, got)
			}
		}
	}
	if want := len(names) + 2; len(tks) != want { // + build, events
		t.Errorf("%d tracks, want the %d workers' and build and events", len(tks), len(names))
	}
}

// TestTracedSequentialCycle checks the one-worker timeline: a single track
// named for all three processors, and the replayed schedule-build spans.
func TestTracedSequentialCycle(t *testing.T) {
	s := chaosSolver(t)
	s.workers = 1
	tr := trace.New(2048)
	s.SetTrace(tr)
	if _, err := s.Cycle(); err != nil {
		t.Fatal(err)
	}
	checkTracks(t, tr, "p0-2")
	build := phaseCounts(tr, traceTracks(tr)["build"])
	if build["schedule-build"] == 0 {
		t.Errorf("build track has no schedule-build spans (%v)", build)
	}
}

// TestTracedBlockCycle: at W = 2 on three processors the blocks are uneven
// — processor 0, and processors 1 and 2 — and each has its track. A tracer
// attached after the executor exists reaches it too.
func TestTracedBlockCycle(t *testing.T) {
	s := chaosSolver(t)
	s.workers = 2
	if _, err := s.Cycle(); err != nil {
		t.Fatal(err)
	}
	tr := trace.New(2048)
	s.SetTrace(tr)
	if _, err := s.Cycle(); err != nil {
		t.Fatal(err)
	}
	checkTracks(t, tr, "p0", "p1-2")
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
	checkTracks(t, tr, "p0", "p1", "p2")
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

	// The events track must hold the incident markers, and the ring of the
	// one worker a fault plan runs the exchanges leading up to them.
	tks := traceTracks(tr)
	events := phaseCounts(tr, tks["events"])
	if events["node-crash"] == 0 || events["recovery"] == 0 {
		t.Errorf("events track missing crash/recovery instants (%v)", events)
	}
	if events["checkpoint"] == 0 {
		t.Errorf("events track missing checkpoint instants (%v)", events)
	}
	worker := phaseCounts(tr, tks["p0-2"])
	if worker["send-gather"] == 0 || worker["recv-gather"] == 0 {
		t.Errorf("worker ring does not hold the exchanges before the incident (%v)", worker)
	}
}
