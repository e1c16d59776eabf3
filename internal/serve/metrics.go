package serve

import (
	"sync/atomic"

	"eul3d/internal/trace"
)

// Metrics holds the service counters. All fields are atomic so job
// runners, HTTP handlers and the drain path update them without locks;
// gauges (queue depth, workers in use) are read live from their owners
// when the snapshot is rendered.
type Metrics struct {
	Submitted atomic.Int64 // admitted into the queue
	Rejected  atomic.Int64 // refused admission (queue full)
	Completed atomic.Int64 // ran to MaxCycles or converged
	Failed    atomic.Int64 // run error or diverged
	Cancelled atomic.Int64 // cancelled by the client
	Expired   atomic.Int64 // deadline passed (queued or running)
	Drained   atomic.Int64 // checkpointed by a graceful drain
	Resumed   atomic.Int64 // re-enqueued from a drain checkpoint at startup

	CoalesceAttach atomic.Int64 // submissions attached as waiters to an identical live job
	CoalesceFanout atomic.Int64 // waiter copies of a shared result delivered

	CacheHits   atomic.Int64 // engine served from the cache
	CacheMisses atomic.Int64 // engine built (or waited on a shared build)
	Builds      atomic.Int64 // engine constructions actually performed
	Evictions   atomic.Int64 // engines closed by LRU eviction
	MeshBuilds  atomic.Int64 // job mesh sequences generated, decoded or loaded on the request path

	AdaptEpochs    atomic.Int64 // adaptation epochs run across adaptive jobs
	AdaptCells     atomic.Int64 // cells added by adaptive refinement
	AdaptRebuildNS atomic.Int64 // nanoseconds spent in incremental engine rebuilds

	// Latency histograms, rendered as Prometheus histogram series by the
	// metrics endpoint. QueueWait is admission to dispatch; RunTime is the
	// solver run alone (queue, governor and engine-acquire time excluded).
	QueueWait trace.Hist
	RunTime   trace.Hist
}

// HitRate returns the engine-cache hit fraction (0 when no lookups yet).
func (m *Metrics) HitRate() float64 {
	h, s := m.CacheHits.Load(), m.CacheMisses.Load()
	if h+s == 0 {
		return 0
	}
	return float64(h) / float64(h+s)
}

// table declares the /metrics rows of the counters above, in the order
// they are rendered.
func (m *Metrics) table() []Metric {
	return []Metric{
		{"eul3dd_jobs_submitted_total", "jobs admitted", &m.Submitted},
		{"eul3dd_jobs_rejected_total", "jobs refused admission (queue full)", &m.Rejected},
		{"eul3dd_jobs_completed_total", "jobs run to completion", &m.Completed},
		{"eul3dd_jobs_failed_total", "jobs failed (error or divergence)", &m.Failed},
		{"eul3dd_jobs_cancelled_total", "jobs cancelled by clients", &m.Cancelled},
		{"eul3dd_jobs_expired_total", "jobs past their deadline", &m.Expired},
		{"eul3dd_jobs_drained_total", "jobs checkpointed by graceful drain", &m.Drained},
		{"eul3dd_jobs_resumed_total", "jobs resumed from drain checkpoints", &m.Resumed},
		{"eul3dd_coalesce_attach_total", "submissions attached as waiters to an identical live job", &m.CoalesceAttach},
		{"eul3dd_coalesce_fanout_total", "waiter copies of a shared result delivered", &m.CoalesceFanout},
		{"eul3dd_engine_cache_hits_total", "engine cache hits", &m.CacheHits},
		{"eul3dd_engine_cache_misses_total", "engine cache misses", &m.CacheMisses},
		{"eul3dd_engine_builds_total", "engine constructions performed", &m.Builds},
		{"eul3dd_mesh_builds_total", "job mesh sequences generated, decoded or loaded", &m.MeshBuilds},
		{"eul3dd_engine_evictions_total", "engines closed by LRU eviction", &m.Evictions},
		{"eul3dd_adapt_epochs_total", "adaptation epochs run across adaptive jobs", &m.AdaptEpochs},
		{"eul3dd_adapt_cells_refined_total", "cells added by adaptive refinement", &m.AdaptCells},
		{"eul3dd_adapt_rebuild_ns_total", "nanoseconds spent in incremental engine rebuilds", &m.AdaptRebuildNS},
	}
}
