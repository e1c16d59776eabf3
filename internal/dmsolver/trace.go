package dmsolver

import (
	"fmt"
	"time"

	"eul3d/internal/parti"
	"eul3d/internal/trace"
)

// Flight-recorder instrumentation of the distributed solver, giving the
// paper-style computation-vs-communication breakdown per simulated
// processor. The hooks sit in the drivers' exchange, the communication
// choke point, so the compute spans need no per-kernel wiring: on every
// timeline the time between two exchanges *is* compute, and the recorder
// closes that gap with a "compute" span when the next exchange opens.
//
//   - sequential driver: every whole-schedule collective becomes a span on
//     the "comm" track ("gather-states" or "scatter-states" — every
//     exchange is led by a state array; arg = level);
//   - MIMD driver: every per-processor exchange half becomes a span on that
//     processor's track ("send-gather"/"recv-gather"/"send-scatter"/
//     "recv-scatter") with the bulk-synchronous "barrier" waits between
//     the halves — the per-node timeline of the Delta port;
//   - schedule and transfer-operator builds are timed during construction
//     and replayed onto the "build" track when a tracer is attached (the
//     paper's inspector-cost accounting);
//   - the recovery orchestrator (recovery.go) marks crashes, checkpoint
//     restores and CFL backoffs as instants on the "events" track.

// The sorts of span a timeline is marked with; spanNames[sort][dir] names
// the phase of that sort of span around an exchange in direction dir.
const (
	spanCompute    = iota // gap since the previous exchange
	spanCollective        // sequential whole-schedule collective
	spanSend              // MIMD send half
	spanRecv              // MIMD receive half
	spanBarrier           // MIMD bulk-synchronous wait
	nSpans
)

var spanNames = [nSpans][2]string{
	spanCompute:    {parti.Gather: "compute", parti.ScatterAdd: "compute"},
	spanCollective: {parti.Gather: "gather-states", parti.ScatterAdd: "scatter-states"},
	spanSend:       {parti.Gather: "send-gather", parti.ScatterAdd: "send-scatter"},
	spanRecv:       {parti.Gather: "recv-gather", parti.ScatterAdd: "recv-scatter"},
	spanBarrier:    {parti.Gather: "barrier", parti.ScatterAdd: "barrier"},
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
	tr    *trace.Tracer
	comm  timeline     // sequential collectives + compute gaps
	procs []timeline   // MIMD: one per simulated processor, owned by that processor's goroutine
	orch  *trace.Track // recovery/checkpoint instants

	ph [nSpans][2]trace.PhaseID
}

// SetTrace attaches a flight-recorder tracer: the "comm" track carries the
// sequential collectives, "p<i>" tracks the per-processor MIMD exchange
// halves and barrier waits, "build" the replayed schedule-construction
// spans and "events" the recovery instants. Compute time appears as the
// gap-filling "compute" spans. Call before Run/Cycle; a nil tracer leaves
// tracing disabled.
func (s *Solver) SetTrace(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	st := &solverTrace{tr: tr, orch: tr.Track("events"), procs: make([]timeline, s.NProc)}
	st.comm = timeline{st: st, tk: tr.Track("comm")}
	for p := range st.procs {
		st.procs[p] = timeline{st: st, tk: tr.Track(fmt.Sprintf("p%d", p))}
	}
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
}

// commLine and procLine return the timeline the sequential driver's
// collectives, or processor p's exchange halves, are laid on: nil, whose
// marks do nothing, with no tracer attached.
func (st *solverTrace) commLine() *timeline {
	if st == nil {
		return nil
	}
	return &st.comm
}

func (st *solverTrace) procLine(p int) *timeline {
	if st == nil {
		return nil
	}
	return &st.procs[p]
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
