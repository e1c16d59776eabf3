package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"eul3d/internal/meshio"
	"eul3d/internal/solver"
)

// ending says how a job left the scheduler: the run's result (possibly
// partial, possibly nil) and the cause that stopped it — nil means it ran
// to completion; for a drain, the resume point to persist beside the
// spec; and, from the run path, what the run still holds (budget, engine
// lease — res.FineSolution aliases engine state, so settle stores the
// solution and keeps only res's convergence summary). A coalesced waiter
// whose flight landed ends with mirror instead: the leader's terminal
// data, copied verbatim.
type ending struct {
	res    *solver.Result
	cause  error
	snap   *meshio.Checkpoint
	held   leases
	mirror *terminal
}

// settle is the one terminal transition. Every way a job can end — ran,
// failed, cancelled or expired (queued, running or as a detaching
// waiter), drained, discarded at shutdown, or mirrored from a landed
// leader — comes through here: state, counter, trace instant, state-file
// persist or cleanup, log line, the run's leases, the flight, and only
// then the done channel. The leases go once the result has been read and
// before anyone is told: whoever sees done closed finds the worker budget
// and the engine free. Landing the flight before done closes means a
// Submit racing with completion either attaches while the flight is live
// or founds a fresh run, never attaches to a finished one.
func (s *Scheduler) settle(j *Job, e ending) {
	var (
		state   = StateCompleted
		counter = &s.met.Completed
		phase   = s.trc.phDone
		errMsg  string
		hash    string
	)
	fail := func(msg string) {
		state, counter, phase, errMsg = StateFailed, &s.met.Failed, s.trc.phDone, msg
	}
	switch err := e.cause; {
	case e.mirror != nil:
		counter, phase = &s.met.CoalesceFanout, s.trc.phFanout
	case err == nil:
		hash = s.storeResult(j, e.res)
	case errors.Is(err, errDrainStop):
		state, counter, phase = StateDrained, &s.met.Drained, s.trc.phDrain
		if perr := s.persist(j, e.snap); perr != nil {
			fail("drain: " + perr.Error())
		}
	case errors.Is(err, errClientStop), errors.Is(err, context.Canceled):
		state, counter = StateCancelled, &s.met.Cancelled
	case errors.Is(err, context.DeadlineExceeded):
		state, counter, errMsg = StateExpired, &s.met.Expired, "deadline exceeded"
	default:
		fail(err.Error())
	}

	j.mu.Lock()
	t := j.terminal
	if e.mirror != nil {
		t = *e.mirror
	} else {
		t.state, t.errMsg, t.resultHash = state, errMsg, hash
		if e.res != nil {
			t.converged, t.orders = e.res.Converged, e.res.Ordersof10
		}
	}
	j.terminal = t
	party := j.party
	j.party = nil // the registry keeps jobs for good; it need not keep their landed flights
	j.mu.Unlock()

	counter.Add(1)
	s.trc.jobTrack(j.ID).Instant(phase, time.Now(), int64(len(t.history)))
	if e.mirror == nil && t.state != StateDrained {
		s.removeStateFiles(j.ID)
	}
	s.cfg.Log.Printf("job %s: %s", j.ID, t.state)
	s.release(j, e.held)
	if j.coalescedWith == "" {
		party.Land(t)
	} else {
		party.Leave()
	}
	j.cancel(e.cause)
	close(j.done)
}

// storeResult content-addresses a completed solution and returns its
// store key — the job's ETag, and a handle peers fetch the field by.
func (s *Scheduler) storeResult(j *Job, res *solver.Result) string {
	if res == nil || len(res.FineSolution) == 0 {
		return ""
	}
	enc, err := meshio.EncodeSolution(j.Spec.Mach, j.Spec.AlphaDeg, res.FineSolution)
	if err != nil {
		return ""
	}
	h, err := s.cfg.Store.Put(enc)
	if err != nil {
		s.cfg.Log.Printf("job %s: storing result artifact: %v", j.ID, err)
		return ""
	}
	return h
}

// --- persistence & resume -------------------------------------------------

// sidecar is what a restart needs beside the job's resume record: the
// spec, and the IDs of the jobs coalesced onto it when it was persisted,
// which Recover re-attaches to the resumed run so they stay resolvable
// across the restart. The record, if any, is <id>.ckpt.
type sidecar struct {
	ID      string   `json:"id"`
	Spec    JobSpec  `json:"spec"`
	Waiters []string `json:"waiters,omitempty"`
}

func (s *Scheduler) statePath(name string) string {
	return filepath.Join(s.cfg.StateDir, name)
}

func (s *Scheduler) removeStateFiles(id string) {
	if s.cfg.StateDir == "" {
		return
	}
	for _, suffix := range []string{".job.json", ".ckpt"} {
		os.Remove(s.statePath(id + suffix))
	}
}

// persist writes a job's restart state so a restarted server can resume
// it: its resume record — ck, or else the one the job was admitted with —
// as <id>.ckpt, and the sidecar, each file atomically. It is the only
// writer of the sidecar; beside it, only a plain run's solver writes
// <id>.ckpt, at its periodic checkpoints. An adapted mesh a record names
// lives in the artifact store, put there by the epoch that made it. No-op
// without a StateDir.
func (s *Scheduler) persist(j *Job, ck *meshio.Checkpoint) error {
	if s.cfg.StateDir == "" {
		return nil
	}
	if ck == nil {
		ck = j.resume
	}
	if ck != nil {
		if err := meshio.SaveCheckpoint(s.statePath(j.ID+".ckpt"), ck); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	sc := sidecar{ID: j.ID, Spec: j.Spec}
	for _, id := range j.party.Live() {
		if id != j.ID {
			sc.Waiters = append(sc.Waiters, id)
		}
	}
	b, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return err
	}
	path := s.statePath(j.ID + ".job.json")
	if err := os.WriteFile(path+".tmp", b, 0o644); err != nil {
		return fmt.Errorf("sidecar: %w", err)
	}
	return os.Rename(path+".tmp", path)
}

// persistRunning writes the restart record of a job about to run with
// periodic checkpoints on, so the node survives SIGKILL: a restart
// resumes from the last periodic checkpoint. A failure degrades
// survivability, not the run itself: log and keep solving.
func (s *Scheduler) persistRunning(j *Job, ck *meshio.Checkpoint) {
	if err := s.persist(j, ck); err != nil {
		s.cfg.Log.Printf("job %s: persisting run state: %v", j.ID, err)
	}
}

// periodic reports whether running jobs checkpoint every
// Config.CheckpointEvery cycles.
func (s *Scheduler) periodic() bool {
	return s.cfg.CheckpointEvery > 0 && s.cfg.StateDir != ""
}

// Recover scans StateDir for drain sidecars and re-admits each job under
// its original ID, resuming from its record when one exists, and
// re-attaches the waiters recorded with it. Because the solver is
// deterministic, a resumed run's history and solution are bitwise
// identical to an uninterrupted one. It returns the number of jobs —
// leaders and waiters — brought back.
func (s *Scheduler) Recover() (int, error) {
	if s.cfg.StateDir == "" {
		return 0, nil
	}
	ents, err := os.ReadDir(s.cfg.StateDir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	n := 0
	for _, ent := range ents {
		if !strings.HasSuffix(ent.Name(), ".job.json") {
			continue
		}
		b, err := os.ReadFile(s.statePath(ent.Name()))
		if err != nil {
			s.cfg.Log.Printf("recover: %s: %v", ent.Name(), err)
			continue
		}
		var sc sidecar
		if err := json.Unmarshal(b, &sc); err != nil {
			s.cfg.Log.Printf("recover: %s: %v", ent.Name(), err)
			continue
		}
		j := &Job{ID: sc.ID, Spec: sc.Spec}
		switch ck, err := meshio.LoadCheckpoint(s.statePath(sc.ID + ".ckpt")); {
		case os.IsNotExist(err): // queued, or drained before its first cycle
		case err != nil:
			s.cfg.Log.Printf("recover: job %s checkpoint: %v (restarting from scratch)", sc.ID, err)
		case ck.Mesh != "" && !s.cfg.Store.Has(ck.Mesh):
			s.cfg.Log.Printf("recover: job %s: mesh %s is not in the artifact store (restarting from scratch)", sc.ID, ck.Mesh[:12])
		default:
			j.resume = ck
		}
		if err := j.Spec.Validate(); err != nil {
			s.cfg.Log.Printf("recover: job %s: %v", sc.ID, err)
			s.removeStateFiles(sc.ID)
			continue
		}
		// Recovered jobs keep their own run; only the waiters drained with
		// the job join it. Should the run finish before a waiter is back,
		// the waiter founds the flight anew and computes the same result.
		readmit := func(w *Job) bool {
			if _, err := s.admit(w, ownFlight(sc.ID)); err != nil {
				s.cfg.Log.Printf("recover: job %s: %v", w.ID, err)
				return false
			}
			s.met.Resumed.Add(1)
			n++
			return true
		}
		if readmit(j) {
			for _, id := range sc.Waiters {
				readmit(&Job{ID: id, Spec: j.Spec})
			}
		}
	}
	return n, nil
}
