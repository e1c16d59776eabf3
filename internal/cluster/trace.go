package cluster

import (
	"eul3d/internal/trace"
)

// Flight-recorder instrumentation of the coordinator. Each node gets a
// track carrying probe spans and state-transition instants (arg = the new
// Status), each job a track with dispatch/handoff/terminal instants — so a
// /debug/trace dump shows the cluster's failure-detection and re-routing
// decisions on the same timeline as the nodes' own solver traces.

const (
	nodeTrackCap = 512
	jobTrackCap  = 64
)

// clusterTrace holds the coordinator's interned phases. Over a nil tracer
// it is inert: the track lookups return nil, and a nil trace.Track drops
// every event.
type clusterTrace struct {
	tr *trace.Tracer

	phProbe    trace.PhaseID // one liveness probe (span; arg = load)
	phMiss     trace.PhaseID // probe failed (instant; arg = consecutive misses)
	phState    trace.PhaseID // status transition (instant; arg = new Status)
	phDispatch trace.PhaseID // job placed on a node (instant; arg = attempt)
	phRetry    trace.PhaseID // dispatch attempt retried (instant; arg = attempt)
	phHandoff  trace.PhaseID // job re-dispatched from checkpoint (instant; arg = resume cycle)
	phCkpt     trace.PhaseID // checkpoint pulled (instant; arg = cycle)
	phShed     trace.PhaseID // submission shed, no routable node (instant)
	phDone     trace.PhaseID // job reached a terminal state (instant; arg = cycles)
	phAttach   trace.PhaseID // submission coalesced onto an in-flight job (instant; arg = parties)
	phFanout   trace.PhaseID // mirrored result delivered to a waiter (instant; arg = cycles)
}

func newClusterTrace(tr *trace.Tracer) clusterTrace {
	return clusterTrace{
		tr:         tr,
		phProbe:    tr.Phase("probe"),
		phMiss:     tr.Phase("beat-miss"),
		phState:    tr.Phase("node-state"),
		phDispatch: tr.Phase("dispatch"),
		phRetry:    tr.Phase("dispatch-retry"),
		phHandoff:  tr.Phase("handoff"),
		phCkpt:     tr.Phase("checkpoint-pull"),
		phShed:     tr.Phase("shed"),
		phDone:     tr.Phase("job-done"),
		phAttach:   tr.Phase("coalesce-attach"),
		phFanout:   tr.Phase("coalesce-fanout"),
	}
}

func (t *clusterTrace) nodeTrack(name string) *trace.Track {
	return t.tr.TrackCap("node "+name, nodeTrackCap)
}

func (t *clusterTrace) jobTrack(id string) *trace.Track {
	return t.tr.TrackCap("job "+id, jobTrackCap)
}
