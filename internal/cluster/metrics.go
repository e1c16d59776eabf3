package cluster

import (
	"sync/atomic"

	"eul3d/internal/serve"
)

// Metrics holds the coordinator's counters. All fields are atomic; the
// per-node gauges (status, load, inflight, breaker trips) are read live
// from the registry when /metrics renders.
type Metrics struct {
	Submitted  atomic.Int64 // jobs accepted by the coordinator
	Completed  atomic.Int64 // jobs that reached completed on some node
	Failed     atomic.Int64 // jobs that failed (node error, divergence, dispatch exhausted)
	Cancelled  atomic.Int64 // jobs cancelled via the coordinator
	Expired    atomic.Int64 // jobs that blew their deadline on a node
	Dispatches atomic.Int64 // successful placements (first placement + handoffs)
	Retries    atomic.Int64 // dispatch attempts that were retried (429/503/transport)
	Handoffs   atomic.Int64 // re-dispatches from a checkpoint after node death/drain
	Steals     atomic.Int64 // cold jobs placed off-ring on the least-loaded node
	Sheds      atomic.Int64 // submissions refused with Retry-After (no routable node)
	CkptPulls  atomic.Int64 // checkpoint snapshots pulled off running nodes
	BeatMisses atomic.Int64 // failed liveness probes across all nodes

	CoalesceAttach atomic.Int64 // submissions attached to an identical in-flight job
	CoalesceFanout atomic.Int64 // mirrored results delivered to attached submissions

	ArtifactUploads atomic.Int64 // artifacts PUT to the coordinator by clients
	ArtifactPushes  atomic.Int64 // artifacts pushed to nodes at placement time
	ArtifactProxies atomic.Int64 // artifacts fetched from one node on behalf of another
	HashPlacements  atomic.Int64 // placements rerouted to a node already holding the job's artifacts
}

// table declares the /metrics rows of the counters above, in the order
// they are rendered.
func (m *Metrics) table() []serve.Metric {
	return []serve.Metric{
		{Name: "eul3dc_jobs_submitted_total", Help: "jobs accepted by the coordinator", V: &m.Submitted},
		{Name: "eul3dc_jobs_completed_total", Help: "jobs completed on some node", V: &m.Completed},
		{Name: "eul3dc_jobs_failed_total", Help: "jobs failed", V: &m.Failed},
		{Name: "eul3dc_jobs_cancelled_total", Help: "jobs cancelled", V: &m.Cancelled},
		{Name: "eul3dc_jobs_expired_total", Help: "jobs past their deadline", V: &m.Expired},
		{Name: "eul3dc_dispatches_total", Help: "successful placements incl. handoffs", V: &m.Dispatches},
		{Name: "eul3dc_dispatch_retries_total", Help: "dispatch attempts retried with backoff", V: &m.Retries},
		{Name: "eul3dc_handoffs_total", Help: "jobs re-dispatched from a checkpoint", V: &m.Handoffs},
		{Name: "eul3dc_steals_total", Help: "cold jobs placed off-ring by load", V: &m.Steals},
		{Name: "eul3dc_sheds_total", Help: "submissions shed in degraded mode", V: &m.Sheds},
		{Name: "eul3dc_checkpoint_pulls_total", Help: "checkpoints pulled off running nodes", V: &m.CkptPulls},
		{Name: "eul3dc_beat_misses_total", Help: "failed liveness probes", V: &m.BeatMisses},
		{Name: "eul3dc_coalesce_attach_total", Help: "submissions attached to an identical in-flight job", V: &m.CoalesceAttach},
		{Name: "eul3dc_coalesce_fanout_total", Help: "mirrored results delivered to attached submissions", V: &m.CoalesceFanout},
		{Name: "eul3dc_artifact_uploads_total", Help: "artifacts uploaded to the coordinator", V: &m.ArtifactUploads},
		{Name: "eul3dc_artifact_pushes_total", Help: "artifacts pushed to nodes at placement", V: &m.ArtifactPushes},
		{Name: "eul3dc_artifact_proxies_total", Help: "artifacts proxied between nodes", V: &m.ArtifactProxies},
		{Name: "eul3dc_hash_placements_total", Help: "placements rerouted to a node already holding the job's artifacts", V: &m.HashPlacements},
	}
}
