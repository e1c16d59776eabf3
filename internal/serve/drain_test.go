package serve

import (
	"os"
	"path/filepath"
	"testing"
)

// Graceful drain checkpoints a running job; a fresh scheduler over the
// same state dir resumes it under its original ID, and — because the
// solver is deterministic — the stitched residual history is bitwise
// identical to an uninterrupted run of the same spec.
func TestDrainCheckpointAndResume(t *testing.T) {
	dir := t.TempDir()
	spec := chanSpec(6, 3, 2, 1, KindSM, 2, 600)

	// Reference: the same spec run to completion without interruption.
	ref := NewScheduler(Config{Runners: 1, WorkerBudget: 4})
	jr, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, jr)
	refHist := jr.View().History
	ref.Stop()
	if len(refHist) != 600 {
		t.Fatalf("reference ran %d cycles, want 600", len(refHist))
	}

	// Interrupted run: drain mid-flight.
	s1 := NewScheduler(Config{Runners: 1, WorkerBudget: 4, StateDir: dir})
	j1, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitCycles(t, j1, 5)
	s1.Drain()
	if st := j1.State(); st != StateDrained {
		t.Fatalf("state after drain %s, want drained", st)
	}
	cut := j1.View().Cycles
	if cut < 5 || cut >= 600 {
		t.Fatalf("drained after %d cycles, want mid-flight", cut)
	}
	if _, err := os.Stat(filepath.Join(dir, j1.ID+".ckpt")); err != nil {
		t.Fatalf("drain checkpoint missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, j1.ID+".job.json")); err != nil {
		t.Fatalf("drain sidecar missing: %v", err)
	}
	if s1.Metrics().Drained.Load() != 1 {
		t.Fatalf("drained counter %d, want 1", s1.Metrics().Drained.Load())
	}
	// After drain, admission is closed.
	if _, err := s1.Submit(spec); err == nil {
		t.Fatal("submit after drain should fail")
	}

	// Restart: recover and run to completion.
	s2 := NewScheduler(Config{Runners: 1, WorkerBudget: 4, StateDir: dir})
	defer s2.Stop()
	n, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d jobs, want 1", n)
	}
	j2, err := s2.Job(j1.ID)
	if err != nil {
		t.Fatalf("resumed job lost its ID: %v", err)
	}
	waitDone(t, j2)
	v := j2.View()
	if v.State != StateCompleted {
		t.Fatalf("resumed job state %s (err %q)", v.State, v.Error)
	}
	if len(v.History) != len(refHist) {
		t.Fatalf("resumed history %d cycles, reference %d", len(v.History), len(refHist))
	}
	for i := range refHist {
		if v.History[i] != refHist[i] {
			t.Fatalf("cycle %d: resumed %g, reference %g (resume not bitwise)", i, v.History[i], refHist[i])
		}
	}
	if s2.Metrics().Resumed.Load() != 1 {
		t.Fatalf("resumed counter %d, want 1", s2.Metrics().Resumed.Load())
	}
	// Completion cleans the state files up: a further restart finds nothing.
	if _, err := os.Stat(filepath.Join(dir, j1.ID+".job.json")); !os.IsNotExist(err) {
		t.Errorf("sidecar not removed after completion (err=%v)", err)
	}
	s3 := NewScheduler(Config{Runners: 1, WorkerBudget: 4, StateDir: dir})
	defer s3.Stop()
	if n, _ := s3.Recover(); n != 0 {
		t.Errorf("second recovery found %d jobs, want 0", n)
	}
}

// Jobs still queued at drain time are persisted spec-only and restart from
// scratch.
func TestDrainPersistsQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	s1 := NewScheduler(Config{Runners: 1, WorkerBudget: 4, StateDir: dir})
	running, err := s1.Submit(chanSpec(6, 3, 2, 1, KindSingle, 0, 100000))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	queued, err := s1.Submit(chanSpec(4, 2, 2, 2, KindSingle, 0, 8))
	if err != nil {
		t.Fatal(err)
	}
	s1.Drain()
	if st := queued.State(); st != StateDrained {
		t.Fatalf("queued job state %s after drain, want drained", st)
	}
	if _, err := os.Stat(filepath.Join(dir, queued.ID+".ckpt")); !os.IsNotExist(err) {
		t.Error("queued job should have no checkpoint")
	}

	s2 := NewScheduler(Config{Runners: 2, WorkerBudget: 4, StateDir: dir})
	defer s2.Stop()
	n, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("recovered %d jobs, want 2 (running + queued)", n)
	}
	j2, err := s2.Job(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if st := j2.State(); st != StateCompleted {
		t.Fatalf("restarted queued job state %s", st)
	}
	// Cancel the long recovered job rather than waiting it out.
	if _, err := s2.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	jr, _ := s2.Job(running.ID)
	waitDone(t, jr)
}

// A waiter coalesced onto a leader that is drained is not lost: the
// leader's sidecar records it, Recover re-attaches it to the resumed run,
// and it ends completed with the leader's result — its history bitwise
// equal to an uninterrupted run of the same spec.
func TestDrainedWaiterResumes(t *testing.T) {
	dir := t.TempDir()
	spec := chanSpec(6, 3, 2, 1, KindSM, 2, 600)

	ref := NewScheduler(Config{Runners: 1, WorkerBudget: 4})
	jr := submitOne(t, ref, spec)
	waitDone(t, jr)
	refHist := jr.View().History
	ref.Stop()

	s1 := NewScheduler(Config{Runners: 1, WorkerBudget: 4, StateDir: dir})
	leader := submitOne(t, s1, spec)
	waitCycles(t, leader, 5)
	waiter := submitOne(t, s1, spec)
	if v := waiter.View(); v.State != StateCoalesced || v.CoalescedWith != leader.ID {
		t.Fatalf("waiter state %s coalesced with %q, want coalesced with %s", v.State, v.CoalescedWith, leader.ID)
	}
	s1.Drain()
	for _, j := range []*Job{leader, waiter} {
		waitDone(t, j)
		if st := j.State(); st != StateDrained {
			t.Fatalf("job %s state %s after drain, want drained", j.ID, st)
		}
	}
	if cut := leader.View().Cycles; cut < 5 || cut >= 600 {
		t.Fatalf("drained after %d cycles, want mid-flight", cut)
	}

	s2 := NewScheduler(Config{Runners: 1, WorkerBudget: 4, StateDir: dir})
	defer s2.Stop()
	n, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("recovered %d jobs, want 2 (leader + its waiter)", n)
	}
	l2, err := s2.Job(leader.ID)
	if err != nil {
		t.Fatalf("resumed leader lost its ID: %v", err)
	}
	w2, err := s2.Job(waiter.ID)
	if err != nil {
		t.Fatalf("drained waiter not resolvable after restart: %v", err)
	}
	waitDone(t, l2)
	waitDone(t, w2)
	lv, wv := l2.View(), w2.View()
	if lv.State != StateCompleted || wv.State != StateCompleted {
		t.Fatalf("leader ended %s (%q), waiter %s (%q); want both completed", lv.State, lv.Error, wv.State, wv.Error)
	}
	if wv.ResultHash == "" || wv.ResultHash != lv.ResultHash {
		t.Errorf("waiter result hash %q, want the leader's %q", wv.ResultHash, lv.ResultHash)
	}
	if wv.CoalescedWith != leader.ID {
		t.Errorf("waiter coalesced with %q after restart, want %s", wv.CoalescedWith, leader.ID)
	}
	if len(wv.History) != len(refHist) {
		t.Fatalf("waiter history %d cycles, reference %d", len(wv.History), len(refHist))
	}
	for i := range refHist {
		if wv.History[i] != refHist[i] {
			t.Fatalf("cycle %d: waiter %g, reference %g (resume not bitwise)", i, wv.History[i], refHist[i])
		}
	}
	if got := s2.Metrics().Completed.Load(); got != 1 {
		t.Errorf("completed %d engine runs after restart, want 1 (the waiter shares the leader's)", got)
	}
	// Both records are gone once the run lands: a further restart is clean.
	if files := stateFiles(t, dir); len(files) != 0 {
		t.Errorf("state files %v left after completion, want none", files)
	}
}

// stateFiles lists the files in a state dir, leaving out the directory of
// the artifact store's disk tier.
func stateFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names
}
