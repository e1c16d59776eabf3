package serve

import "context"

// Request coalescing: concurrent submissions whose SpecHash matches a
// live job attach to it as waiters instead of running (or even queueing)
// their own copy. The solver is bitwise deterministic, so every party
// receives the single run's result unchanged.
//
// The unit of sharing is a flight (internal/flight), which owns the
// party counting: one party leaving — a waiter cancel, a waiter
// deadline, or the leader's own client — detaches only that party, the
// run is cancelled when the last party leaves, and the flight
// deregisters before the leader's done channel closes, so late identical
// submissions start a fresh run instead of attaching to a finished one.
// The leader is the job actually queued and dispatched. What this file
// adds is what a waiter is here: a full Job in the registry (pollable,
// cancellable, with its own deadline) whose watcher goroutine settles it
// with the leader's terminal data when the run lands.

// attachLocked registers j, which joined a live flight, as a waiter on
// it. Caller holds s.mu.
func (s *Scheduler) attachLocked(j *Job) {
	leader := j.party.Leader()
	j.state = StateCoalesced
	j.coalescedWith = leader
	s.jobs[j.ID] = j
	s.met.Submitted.Add(1)
	s.met.CoalesceAttach.Add(1)
	// The attach instant lands on both tracks: the waiter's (what it
	// attached to) and the leader's (its audience growing).
	parties := int64(len(j.party.Live()))
	s.trc.jobTrack(j.ID).Instant(s.trc.phAttach, j.enqueued, parties)
	s.trc.jobTrack(leader).Instant(s.trc.phAttach, j.enqueued, parties)
	s.wg.Add(1)
	go s.await(j)
}

// await is a waiter's watcher: mirror the leader's terminal data when the
// flight lands, or detach on the waiter's own cancel or deadline.
func (s *Scheduler) await(j *Job) {
	defer s.wg.Done()
	ctx, stop := j.bounded()
	defer stop()
	select {
	case <-j.party.Done():
		t := j.party.Value()
		s.settle(j, ending{mirror: &t})
	case <-ctx.Done():
		s.settle(j, ending{cause: context.Cause(ctx)})
	}
}
