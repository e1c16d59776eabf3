package serve

import (
	"sync"
	"testing"
	"time"

	"eul3d/internal/trace"
)

// Cancellation-race coverage: the scheduler's cancellation paths are
// exercised at their narrowest windows — a deadline that has already
// passed when the runner pops the job, a client cancel that lands while
// the job is blocked inside engine-acquire, and concurrent drains.

// TestSchedulerCancellationRaces drives the two single-job races through
// one table: each case arranges a specific race window, fires the cancel,
// and asserts the terminal state the scheduler must resolve it to.
func TestSchedulerCancellationRaces(t *testing.T) {
	cases := []struct {
		name string
		// arrange submits the victim into the prepared scheduler (one
		// runner, blocked by blocker) and returns it.
		arrange func(t *testing.T, s *Scheduler) *Job
		// trigger fires the cancellation once the victim is staged.
		trigger func(t *testing.T, s *Scheduler, victim, blocker *Job)
		want    JobState
		// wantNoRun asserts the victim never executed a cycle.
		wantNoRun bool
	}{
		{
			// The deadline passes while the job sits in the queue; the
			// runner pops it and must expire it in the dispatch preamble,
			// before any mesh build or engine work.
			name: "deadline expires at dequeue",
			arrange: func(t *testing.T, s *Scheduler) *Job {
				// Occupy the second runner too, so the victim must queue.
				b2, err := s.Submit(chanSpec(5, 2, 2, 8, KindSingle, 0, 200000))
				if err != nil {
					t.Fatal(err)
				}
				waitState(t, b2, StateRunning)
				spec := chanSpec(4, 2, 2, 1, KindSingle, 0, 50)
				spec.DeadlineMS = 1 // long gone by the time a runner frees up
				j, err := s.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				time.Sleep(10 * time.Millisecond) // let the deadline lapse while queued
				return j
			},
			trigger: func(t *testing.T, s *Scheduler, victim, blocker *Job) {
				if _, err := s.Cancel(blocker.ID); err != nil { // frees the runner: victim dequeues now
					t.Fatal(err)
				}
			},
			want:      StateExpired,
			wantNoRun: true,
		},
		{
			// The victim shares the blocker's engine key, so it blocks in
			// cache.Acquire waiting on the engine lease; the client cancel
			// must unblock it there and resolve to cancelled, leaving the
			// engine leasable for the blocker's release.
			name: "client cancel during engine acquire",
			arrange: func(t *testing.T, s *Scheduler) *Job {
				j, err := s.Submit(chanSpec(4, 2, 2, 7, KindSingle, 0, 50))
				if err != nil {
					t.Fatal(err)
				}
				return j
			},
			trigger: func(t *testing.T, s *Scheduler, victim, blocker *Job) {
				waitState(t, victim, StateRunning) // running = inside dispatch, parked on the lease
				time.Sleep(20 * time.Millisecond)  // settle into cache.Acquire's select
				if _, err := s.Cancel(victim.ID); err != nil {
					t.Fatal(err)
				}
			},
			want:      StateCancelled,
			wantNoRun: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Two runners so the victim of the acquire race can enter
			// dispatch while the blocker holds the engine.
			s := NewScheduler(Config{QueueCap: 8, Runners: 2, WorkerBudget: 4})
			defer s.Stop()
			blocker, err := s.Submit(chanSpec(4, 2, 2, 7, KindSingle, 0, 200000))
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, blocker, StateRunning)
			waitCycles(t, blocker, 1)

			victim := tc.arrange(t, s)
			tc.trigger(t, s, victim, blocker)
			waitDone(t, victim)
			if st := victim.State(); st != tc.want {
				t.Fatalf("victim state %s, want %s", st, tc.want)
			}
			if tc.wantNoRun && victim.View().Cycles != 0 {
				t.Errorf("victim ran %d cycles, want 0", victim.View().Cycles)
			}
			// Stop (deferred) cancels the blockers and waits them out.
		})
	}
}

// TestSchedulerDoubleDrain races two Drains (and a trailing Stop) against
// a running and a queued job: both calls must return, every job must reach
// a terminal or drained state exactly once, and nothing may deadlock or
// double-close a done channel.
func TestSchedulerDoubleDrain(t *testing.T) {
	s := NewScheduler(Config{QueueCap: 8, Runners: 1, WorkerBudget: 4, StateDir: t.TempDir()})
	running, err := s.Submit(chanSpec(6, 3, 2, 1, KindSingle, 0, 200000))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	waitCycles(t, running, 1)
	queued, err := s.Submit(chanSpec(6, 3, 2, 2, KindSingle, 0, 50))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Drain()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent Drain calls did not both return")
	}
	// Idempotent after the fact too.
	s.Drain()
	s.Stop()

	for _, j := range []*Job{running, queued} {
		waitDone(t, j)
		if st := j.State(); st != StateDrained {
			t.Errorf("job %s state %s, want drained", j.ID, st)
		}
	}
	if n := s.Metrics().Drained.Load(); n != 2 {
		t.Errorf("drained counter %d, want 2", n)
	}
}

// TestSchedulerStopKeepsTheBooks: Stop settles the jobs it finds still
// queued through the same terminal transition as every other cancel, so
// each one is counted in Cancelled and leaves its job-done instant on the
// flight recorder.
func TestSchedulerStopKeepsTheBooks(t *testing.T) {
	tr := trace.New(256)
	s := NewScheduler(Config{QueueCap: 8, Runners: 1, WorkerBudget: 4, Trace: tr})
	blocker := submitOne(t, s, chanSpec(6, 3, 2, 1, KindSingle, 0, 200000))
	waitState(t, blocker, StateRunning)
	queued := make([]*Job, 3)
	for i := range queued {
		queued[i] = submitOne(t, s, chanSpec(4, 2, 2, int64(10+i), KindSingle, 0, 50))
	}
	if got := s.Metrics().Cancelled.Load(); got != 0 {
		t.Fatalf("cancelled %d before Stop, want 0", got)
	}
	s.Stop()

	// Three queued jobs plus the blocker a runner held.
	if got := s.Metrics().Cancelled.Load(); got != 4 {
		t.Errorf("Stop raised Cancelled to %d, want 4 (3 queued + the running blocker)", got)
	}
	for _, j := range append(queued, blocker) {
		waitDone(t, j)
		if st := j.State(); st != StateCancelled {
			t.Errorf("job %s state %s after Stop, want cancelled", j.ID, st)
		}
		done := 0
		for _, tk := range tr.Tracks() {
			if tk.Name() != "job "+j.ID {
				continue
			}
			for _, ev := range tk.Events() {
				if tr.PhaseName(ev.Phase) == "job-done" {
					done++
				}
			}
		}
		if done != 1 {
			t.Errorf("job %s has %d job-done instants on its track, want 1", j.ID, done)
		}
	}
}
