package serve

import (
	"eul3d/internal/trace"
)

// Flight-recorder instrumentation of the service layer. Every job gets its
// own small track ("job <id>") carrying the lifecycle as spans — the time
// spent queued, waiting on the worker-budget governor, acquiring an engine,
// and running — plus cache-hit/miss and terminal-state instants. Loading
// the /debug/trace dump into a Chrome-trace viewer therefore shows the
// scheduler's multiplexing decisions next to the solver timelines.

// jobTrackCap bounds each per-job ring: a job's lifecycle is a handful of
// spans, so the tracks stay tiny even with hundreds of jobs.
const jobTrackCap = 32

// schedTrace holds the scheduler's interned phases. Over a nil tracer it
// is inert: the phases intern to 0, jobTrack returns nil, and a nil Track
// drops every event.
type schedTrace struct {
	tr *trace.Tracer

	phQueued  trace.PhaseID // admission -> dispatch (arg = priority)
	phGovWait trace.PhaseID // worker-budget governor wait (arg = workers)
	phAcquire trace.PhaseID // engine-cache acquire, incl. lease waits and builds
	phRun     trace.PhaseID // solver run (arg = cycles completed)

	phHit    trace.PhaseID // engine served from cache
	phMiss   trace.PhaseID // this job built the engine
	phDone   trace.PhaseID // terminal instant (arg = cycles recorded)
	phDrain  trace.PhaseID // drained by graceful shutdown
	phAttach trace.PhaseID // waiter coalesced onto a live flight (arg = parties)
	phFanout trace.PhaseID // shared result copied to a waiter (arg = cycles)
}

func newSchedTrace(tr *trace.Tracer) schedTrace {
	return schedTrace{
		tr:        tr,
		phQueued:  tr.Phase("queued"),
		phGovWait: tr.Phase("governor-wait"),
		phAcquire: tr.Phase("engine-acquire"),
		phRun:     tr.Phase("run"),
		phHit:     tr.Phase("cache-hit"),
		phMiss:    tr.Phase("cache-miss"),
		phDone:    tr.Phase("job-done"),
		phDrain:   tr.Phase("job-drained"),
		phAttach:  tr.Phase("coalesce-attach"),
		phFanout:  tr.Phase("coalesce-fanout"),
	}
}

// jobTrack returns (idempotently registering) the job's lifecycle track.
// Beyond the tracer's track budget this returns nil, which every Track
// method treats as a silent drop — old jobs keep their tracks, new ones
// go untraced. So it does without a tracer — answered here, sparing the
// job path the track name's allocation.
func (t *schedTrace) jobTrack(id string) *trace.Track {
	if t.tr == nil {
		return nil
	}
	return t.tr.TrackCap("job "+id, jobTrackCap)
}
