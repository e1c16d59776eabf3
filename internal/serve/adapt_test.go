package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/meshio"
)

func sodAdaptSpec(engine string, workers, interval, epochs int) JobSpec {
	return JobSpec{
		Scenario: "sod",
		Engine:   engine,
		Workers:  workers,
		Adapt:    &AdaptSpec{Interval: interval, Epochs: epochs},
	}
}

// An adaptive scenario job runs through the scheduler end to end: it
// refines, bypasses the engine cache, lands diagnostics computed on the
// final adapted mesh, and bumps the adaptation counters.
func TestAdaptJobCompletes(t *testing.T) {
	s := NewScheduler(Config{Runners: 1, WorkerBudget: 4})
	defer s.Stop()

	j, err := s.Submit(sodAdaptSpec(KindSM, 2, 50, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	v := j.View()
	if v.State != StateCompleted {
		t.Fatalf("adaptive job state %s (err %q)", v.State, v.Error)
	}
	if len(v.AdaptEpochs) < 2 {
		t.Fatalf("ran %d adaptation epochs, want >= 2", len(v.AdaptEpochs))
	}
	for i, ep := range v.AdaptEpochs {
		if ep.CellsAfter <= ep.CellsBefore {
			t.Errorf("epoch %d did not grow the mesh: %d -> %d", i, ep.CellsBefore, ep.CellsAfter)
		}
		if ep.RebuildNS <= 0 {
			t.Errorf("epoch %d recorded no rebuild time", i)
		}
	}
	if v.Diagnostics == nil {
		t.Fatal("completed scenario job has no diagnostics")
	}
	if tol := v.Spec.scenario().L1Tol; v.Diagnostics.L1Density > tol {
		t.Errorf("L1 density error %g exceeds the preset tolerance %g", v.Diagnostics.L1Density, tol)
	}
	if v.ResultHash == "" {
		t.Error("completed adaptive job has no result artifact")
	}
	// Adaptive jobs never touch the engine cache.
	if v.CacheHit != nil {
		t.Error("adaptive job reported an engine-cache interaction")
	}

	m := s.Metrics()
	if got := m.AdaptEpochs.Load(); got < 2 {
		t.Errorf("AdaptEpochs counter %d, want >= 2", got)
	}
	if m.AdaptCells.Load() <= 0 {
		t.Error("AdaptCells counter not bumped")
	}
	if m.AdaptRebuildNS.Load() <= 0 {
		t.Error("AdaptRebuildNS counter not bumped")
	}
}

// Malformed adaptation specs are rejected at submission.
func TestAdaptSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
	}{
		// The sod preset caps the hierarchy at one level, where mg names
		// the single grid; wedge's two levels are a multigrid.
		{"multigrid engine", JobSpec{Scenario: "wedge", Engine: KindMG, Adapt: &AdaptSpec{}}},
		{"pooled multigrid engine", JobSpec{Scenario: "wedge", Engine: KindSMMG, Adapt: &AdaptSpec{}}},
		{"explicit levels", JobSpec{Scenario: "wedge", Levels: 2, Adapt: &AdaptSpec{}}},
		{"bogus indicator", JobSpec{Scenario: "sod", Adapt: &AdaptSpec{Indicator: "entropy"}}},
		{"negative interval", JobSpec{Scenario: "sod", Adapt: &AdaptSpec{Interval: -1}}},
		{"too many epochs", JobSpec{Scenario: "sod", Adapt: &AdaptSpec{Epochs: 17}}},
		{"frac above half", JobSpec{Scenario: "sod", Adapt: &AdaptSpec{Frac: 0.75}}},
		{"negative budget", JobSpec{Scenario: "sod", Adapt: &AdaptSpec{Budget: -4}}},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err == nil {
			t.Errorf("%s: spec validated, want rejection", c.name)
		}
	}
	// The adaptation schedule is part of the coalescing key.
	a, b := sodAdaptSpec(KindSM, 2, 50, 2), sodAdaptSpec(KindSM, 2, 40, 2)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.SpecHash() == b.SpecHash() {
		t.Error("different adaptation schedules share a SpecHash")
	}
}

// A resume record is outside input (any artifact can be named as
// resume_hash), so one written at another CFL than the job's engine runs at
// fails the job, plain or adaptive, rather than continue a foreign history.
func TestResumeRejectsForeignCFL(t *testing.T) {
	s := NewScheduler(Config{Runners: 1, WorkerBudget: 4})
	defer s.Stop()
	for _, spec := range []JobSpec{chanSpec(6, 3, 2, 9, KindSingle, 0, 10), sodAdaptSpec(KindSingle, 0, 30, 2)} {
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		ms, err := spec.BuildMeshes()
		if err != nil {
			t.Fatal(err)
		}
		p := spec.Params()
		ck := &meshio.Checkpoint{Sol: make([]euler.State, ms[0].NV()), CFL: p.CFL / 2, Dt: p.GlobalDt, StepsLeft: spec.Cycles}
		j, err := s.SubmitResume("", spec, ck)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if v := j.View(); v.State != StateFailed || !strings.Contains(v.Error, "CFL") {
			t.Errorf("adaptive=%v: record at CFL %g ended %s (%q), want failed on the CFL", spec.Adapt != nil, ck.CFL, v.State, v.Error)
		}
	}
}

// Draining an adaptive job mid-run persists one record, which names the
// adapted mesh in the artifact store (the state dir's disk tier); a fresh
// scheduler resumes it on that mesh and finishes bitwise identical to an
// uninterrupted run — on the sequential engine and on the pooled one,
// which builds on the adapted mesh exactly the layout the uninterrupted
// run rebuilt onto it.
func TestAdaptDrainResume(t *testing.T) {
	t.Run("single", func(t *testing.T) { testAdaptDrainResume(t, sodAdaptSpec(KindSingle, 0, 30, 2)) })
	t.Run("sm", func(t *testing.T) { testAdaptDrainResume(t, sodAdaptSpec(KindSM, 2, 30, 2)) })
}

func testAdaptDrainResume(t *testing.T, spec JobSpec) {
	dir := t.TempDir()
	// An explicit budget keeps the marking arithmetic identical across the
	// interrupted and resumed runs (the default is derived from the current
	// cell count, which differs once the resumed run starts on a refined
	// mesh).
	spec.Adapt.Budget = 20000

	ref := NewScheduler(Config{Runners: 1, WorkerBudget: 4})
	jr, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, jr)
	refV := jr.View()
	ref.Stop()
	if refV.State != StateCompleted {
		t.Fatalf("reference state %s (err %q)", refV.State, refV.Error)
	}
	if len(refV.AdaptEpochs) < 2 {
		t.Fatalf("reference ran %d epochs, want >= 2", len(refV.AdaptEpochs))
	}

	s1 := NewScheduler(Config{Runners: 1, WorkerBudget: 4, StateDir: dir, CheckpointEvery: 25})
	j1, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Past the first epoch (step 30) the run lives on a refined mesh, so
	// the drain exercises the mesh-carrying resume path.
	waitCycles(t, j1, 40)
	s1.Drain()
	if st := j1.State(); st != StateDrained {
		t.Fatalf("state after drain %s, want drained", st)
	}
	cut := j1.View().Cycles
	if cut >= len(refV.History) {
		t.Fatalf("drained after %d cycles, not mid-flight", cut)
	}
	if got, want := stateFiles(t, dir), []string{j1.ID + ".ckpt", j1.ID + ".job.json"}; !slices.Equal(got, want) {
		t.Fatalf("state dir holds %v, want %v", got, want)
	}
	ck, err := meshio.LoadCheckpoint(filepath.Join(dir, j1.ID+".ckpt"))
	if err != nil {
		t.Fatal(err)
	}

	s2 := NewScheduler(Config{Runners: 1, WorkerBudget: 4, StateDir: dir})
	defer s2.Stop()
	if ck.Mesh == "" || !s2.Store().Has(ck.Mesh) {
		t.Fatalf("the drained record names mesh %q, which the restarted store does not hold", ck.Mesh)
	}
	n, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d jobs, want 1", n)
	}
	j2, err := s2.Job(j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	v := j2.View()
	if v.State != StateCompleted {
		t.Fatalf("resumed job state %s (err %q)", v.State, v.Error)
	}
	if len(v.History) != len(refV.History) {
		t.Fatalf("resumed history %d steps, reference %d", len(v.History), len(refV.History))
	}
	for i := range refV.History {
		if v.History[i] != refV.History[i] {
			t.Fatalf("step %d: resumed %g, reference %g (resume not bitwise)", i, v.History[i], refV.History[i])
		}
	}
	if v.ResultHash != refV.ResultHash {
		t.Fatalf("resumed result hash %s, reference %s", v.ResultHash, refV.ResultHash)
	}
	if len(v.AdaptEpochs)+len(j1.View().AdaptEpochs) < 2 {
		t.Errorf("interrupted+resumed run recorded %d+%d epochs, want 2 total",
			len(j1.View().AdaptEpochs), len(v.AdaptEpochs))
	}
	// Completion cleans up both state files.
	for _, suffix := range []string{".job.json", ".ckpt"} {
		if _, err := os.Stat(filepath.Join(dir, j1.ID+suffix)); !os.IsNotExist(err) {
			t.Errorf("state file %s not removed after completion (err=%v)", suffix, err)
		}
	}
}

// TestHTTPAdaptResumeBitwise hands a drained adaptive Sod job to a fresh
// node the way a coordinator does: the record goes into the node's store,
// with the adapted mesh beside it when the record names one, and the job
// follows by resume_hash under its own ID. Drained before the first epoch,
// the record carries the steps since the start, so the epoch still fires
// where the uninterrupted run's did; drained after it, the record names the
// refined mesh the run continues on. Either way the resumed history and
// result equal an uninterrupted run's, bit for bit.
func TestHTTPAdaptResumeBitwise(t *testing.T) {
	t.Run("before-epoch", func(t *testing.T) { testHTTPAdaptResume(t, 120, 5, false) })
	t.Run("after-epoch", func(t *testing.T) { testHTTPAdaptResume(t, 30, 40, true) })
}

func testHTTPAdaptResume(t *testing.T, interval, cut int, refined bool) {
	spec := sodAdaptSpec(KindSingle, 0, interval, 2)

	ref := NewScheduler(Config{Runners: 1, WorkerBudget: 4})
	defer ref.Stop()
	jr, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, jr)
	refV := jr.View()
	if refV.State != StateCompleted || len(refV.AdaptEpochs) == 0 {
		t.Fatalf("reference ended %s with %d epochs (err %q)", refV.State, len(refV.AdaptEpochs), refV.Error)
	}

	first := NewScheduler(Config{Runners: 1, WorkerBudget: 4, StateDir: t.TempDir()})
	defer first.Stop()
	j, err := first.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitCycles(t, j, cut)
	first.Drain()
	if st := j.State(); st != StateDrained {
		t.Fatalf("first-node job ended %s, want drained", st)
	}
	raw, err := os.ReadFile(first.CheckpointFile(j.ID))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := meshio.DecodeCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := ck.Epochs > 0; got != refined || (ck.Mesh != "") != refined {
		t.Fatalf("drained at step %d with %d epochs, mesh %q: not the case under test", ck.Cycle, ck.Epochs, ck.Mesh)
	}

	_, srv := newTestServer(t, Config{Runners: 1, WorkerBudget: 4})
	if ck.Mesh != "" {
		blob, err := first.Store().Get(ck.Mesh)
		if err != nil {
			t.Fatal(err)
		}
		if h := putArtifact(t, srv, blob); h != ck.Mesh {
			t.Fatalf("mesh pushed as %s, record names %s", h, ck.Mesh)
		}
	}
	body, err := json.Marshal(SolveRequest{JobSpec: spec, ID: j.ID, ResumeHash: putArtifact(t, srv, raw)})
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := postJob(t, srv, string(body)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("handoff submit: %d, want 202", resp.StatusCode)
	}
	v := waitViewDone(t, srv, j.ID)
	if v.State != StateCompleted {
		t.Fatalf("resumed job ended %s (err %q)", v.State, v.Error)
	}
	if len(v.History) != len(refV.History) {
		t.Fatalf("resumed history %d steps, reference %d", len(v.History), len(refV.History))
	}
	for i := range refV.History {
		if v.History[i] != refV.History[i] {
			t.Fatalf("step %d: resumed %g, reference %g (handoff not bitwise)", i, v.History[i], refV.History[i])
		}
	}
	if v.ResultHash != refV.ResultHash {
		t.Fatalf("resumed result hash %s, reference %s", v.ResultHash, refV.ResultHash)
	}
}
