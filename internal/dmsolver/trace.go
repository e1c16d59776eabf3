package dmsolver

import (
	"fmt"
	"time"

	"eul3d/internal/parti"
	"eul3d/internal/trace"
)

// Flight-recorder instrumentation of the distributed solver, giving the
// paper-style computation-vs-communication breakdown per worker. The hooks
// sit in the executor's exchange, the communication choke point, so the
// compute spans need no per-kernel wiring: on every timeline the time
// between two exchanges *is* compute, and the recorder closes that gap
// with a "compute" span when the next exchange opens.
//
//   - every worker of an executor has one track, named for its block of
//     processors ("p3", or "p0-3" for processors 0 to 3): its exchange
//     halves ("send-gather"/"recv-gather"/"send-scatter"/"recv-scatter",
//     arg = level) with the bulk-synchronous "barrier" waits between them,
//     and the residual reduction's barriers — at W = P the per-node
//     timeline of the Delta port;
//   - schedule and transfer-operator builds are timed during construction
//     and replayed onto the "build" track when a tracer is attached (the
//     paper's inspector-cost accounting);
//   - the recovery orchestrator (recovery.go) marks crashes, checkpoint
//     restores and CFL backoffs as instants on the "events" track.

// The sorts of span a timeline is marked with; spanNames[sort][dir] names
// the phase of that sort of span around an exchange in direction dir.
const (
	spanCompute = iota // gap since the previous exchange
	spanSend           // the block's send halves
	spanRecv           // the block's receive halves
	spanBarrier        // bulk-synchronous wait
	nSpans
)

var spanNames = [nSpans][2]string{
	spanCompute: {parti.Gather: "compute", parti.ScatterAdd: "compute"},
	spanSend:    {parti.Gather: "send-gather", parti.ScatterAdd: "send-scatter"},
	spanRecv:    {parti.Gather: "recv-gather", parti.ScatterAdd: "recv-scatter"},
	spanBarrier: {parti.Gather: "barrier", parti.ScatterAdd: "barrier"},
}

// buildSpan is one timed construction step, recorded before any tracer
// exists and replayed by SetTrace.
type buildSpan struct {
	name     string
	level    int
	from, to time.Time
}

// timeline is a track laid down as back-to-back spans: each mark closes the
// interval since the previous one.
type timeline struct {
	st   *solverTrace
	tk   *trace.Track
	last time.Time
}

// solverTrace is the solver's attached recorder state; nil disables every
// hook.
type solverTrace struct {
	tr   *trace.Tracer
	orch *trace.Track // recovery/checkpoint instants

	ph [nSpans][2]trace.PhaseID
}

// SetTrace attaches a flight-recorder tracer: one track per worker of
// every executor the solver runs, named for its block of processors, with
// its exchange halves and barrier waits; "build" the replayed
// schedule-construction spans and "events" the recovery instants. Compute
// time appears as the gap-filling "compute" spans. Call before Run/Cycle;
// a nil tracer leaves tracing disabled.
func (s *Solver) SetTrace(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	st := &solverTrace{tr: tr, orch: tr.Track("events")}
	for sort, names := range spanNames {
		for dir, n := range names {
			st.ph[sort][dir] = tr.Phase(n)
		}
	}

	// Replay the construction timings recorded by build(). When the tracer
	// was created after the solver these land at negative timestamps —
	// before the origin — which the viewers accept.
	bt := tr.Track("build")
	for _, b := range s.builds {
		bt.Span(tr.Phase(b.name), b.from, b.to, int64(b.level))
	}
	s.st = st
	for _, x := range s.execs {
		st.attach(x)
	}
}

// attach gives every block of x its timeline; nothing without a tracer.
// Two executors' blocks of the same processors share a track.
func (st *solverTrace) attach(x *executor) {
	if st == nil {
		return
	}
	for k := range x.blocks {
		b := &x.blocks[k]
		name := fmt.Sprintf("p%d", b.lo)
		if b.hi-b.lo != 1 {
			name = fmt.Sprintf("p%d-%d", b.lo, b.hi-1)
		}
		b.tl = &timeline{st: st, tk: st.tr.Track(name)}
	}
}

// mark closes the interval since the timeline's previous mark as a span of
// the given sort around an exchange in direction dir, and opens the next.
func (tl *timeline) mark(sort int, dir parti.Dir, arg int) {
	if tl == nil {
		return
	}
	now := time.Now()
	if !tl.last.IsZero() {
		tl.tk.Span(tl.st.ph[sort][dir], tl.last, now, int64(arg))
	}
	tl.last = now
}

// markIncident records a recovery-stepper instant on the events track:
// "node-crash", "cfl-backoff" and "checkpoint" with the cycle as arg,
// "recovery" with the cycle rewound to.
func (s *Solver) markIncident(incident string, arg int) {
	if s.st == nil {
		return
	}
	s.st.orch.Instant(s.st.tr.Phase(incident), time.Now(), int64(arg))
}

// recordBuild appends one construction timing for later replay.
func (s *Solver) recordBuild(name string, level int, from time.Time) {
	s.builds = append(s.builds, buildSpan{name: name, level: level, from: from, to: time.Now()})
}
