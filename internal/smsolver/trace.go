package smsolver

import (
	"fmt"
	"time"

	"eul3d/internal/trace"
)

// Flight-recorder instrumentation of the worker-pool engine. When a tracer
// is attached the engine swaps its dispatch function for execTraced, which
// brackets every worker's chunk of every parallel region with a span on
// that worker's track, and fork closes each region by writing the
// per-worker barrier-wait span (kernel end → join) — the imbalance view
// the paper's autotasking discussion is about. The orchestrator's step
// phases, RK stages and whole steps land on a separate "phases" track.
// Everything here is allocation-free in steady state: tracks, the kernel
// end-time table and the interned phase ids are preallocated at attach
// time, and recording is two time.Time reads plus a ring write.

// taskNames names every parallel region for the per-worker kernel spans,
// indexed by taskKind.
var taskNames = [nTasks]string{
	tInit:         "init",
	tSweep:        "sweep",
	tNu:           "nu",
	tDiss2:        "diss2",
	tCombine:      "combine",
	tNorm:         "norm",
	tSmoothGather: "smooth-gather",
	tUpdate:       "update",
	tUpdateNext:   "update-next",
	tResInit:      "res-init",
	tInterp:       "interp",
	tScatter:      "scatter",
	tRepairSave:   "repair-save",
	tCorrDelta:    "corr-delta",
	tForcingSub:   "forcing-sub",
	tApplyCorr:    "apply-corr",
}

// engineTrace holds the engine's preallocated tracing state; a nil pointer
// (the default) disables every hook at the cost of one branch.
type engineTrace struct {
	orch    *trace.Track   // orchestrator: step phases, RK stages, steps
	wtracks []*trace.Track // one per pooled worker
	kend    []time.Time    // per-worker kernel end time of the open region

	taskPh    [len(taskNames)]trace.PhaseID
	phasePh   [nPhases]trace.PhaseID
	phBarrier trace.PhaseID
	phStage   trace.PhaseID
	phStep    trace.PhaseID
}

// attachTrace registers this engine's tracks on tr (named prefix+"phases"
// and prefix+"w<i>") and enables the traced dispatch path. Call before the
// first Step/Cycle; not safe to call while a parallel region is running.
func (e *engine) attachTrace(tr *trace.Tracer, prefix string) {
	if tr == nil {
		return
	}
	et := &engineTrace{
		orch:    tr.Track(prefix + "phases"),
		wtracks: make([]*trace.Track, e.nw),
		kend:    make([]time.Time, e.nw),
	}
	for w := range et.wtracks {
		et.wtracks[w] = tr.Track(fmt.Sprintf("%sw%d", prefix, w))
	}
	for k, name := range taskNames {
		et.taskPh[k] = tr.Phase(name)
	}
	for p, name := range phaseNames {
		et.phasePh[p] = tr.Phase(name)
	}
	et.phBarrier = tr.Phase("barrier")
	et.phStage = tr.Phase("rk-stage")
	et.phStep = tr.Phase("step")
	e.et = et
	e.execFn = e.execTraced
}

// execTraced wraps exec with a kernel span on the worker's own track and
// records the kernel end time for fork's barrier span. The span's argument
// is the part set (euler.SweepParts) on the fused sweeps — what tells a
// stage-0 sweep from a later one — and 0 elsewhere. The kend
// slot is written by worker wk and read by the orchestrator after the join;
// the pool's atomic join counter provides the happens-before edge.
func (e *engine) execTraced(wk int) {
	start := time.Now()
	e.exec(wk)
	end := time.Now()
	e.et.kend[wk] = end
	arg := int64(0)
	if e.job == tSweep {
		arg = int64(e.parts)
	}
	e.et.wtracks[wk].Span(e.et.taskPh[e.job], start, end, arg)
}
