package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"

	"eul3d/internal/meshio"
	"eul3d/internal/perf"
)

// API is the HTTP facade over a Scheduler:
//
//	POST   /v1/solve     submit a JobSpec; ?wait=1 (or "wait":true) blocks;
//	                     "id" and "resume_hash" (a resume record in the
//	                     artifact store, pushed there first together with
//	                     the adapted mesh it may name) hand off an
//	                     interrupted job from another node
//	GET    /v1/jobs/{id} job status + residual history so far; the
//	                     completed result's content hash is the ETag and
//	                     If-None-Match answers 304
//	DELETE /v1/jobs/{id} cooperative cancellation
//	GET    /v1/jobs/{id}/checkpoint  latest resume record (binary)
//	PUT    /v1/artifacts        upload bytes to the artifact store -> hash
//	GET    /v1/artifacts/{hash} fetch an artifact (HEAD probes existence)
//	GET    /healthz      liveness: 200 while the process serves requests
//	GET    /readyz       readiness: 503 while draining or saturated
//	GET    /metrics      Prometheus-style text metrics
//	GET    /debug/trace  flight-recorder dump (Chrome trace-event JSON)
type API struct {
	s *Scheduler
}

// NewAPI wraps a scheduler.
func NewAPI(s *Scheduler) *API { return &API{s: s} }

// Handler builds the route table.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", a.handleSolve)
	mux.HandleFunc("GET /v1/jobs/{id}", a.handleGetJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", a.handleCancelJob)
	mux.HandleFunc("GET /v1/jobs/{id}/checkpoint", a.handleJobCheckpoint)
	ArtifactRoutes(mux, a.s.Store(), nil, nil)
	mux.HandleFunc("GET /healthz", a.handleHealthz)
	mux.HandleFunc("GET /readyz", a.handleReadyz)
	mux.HandleFunc("GET /metrics", a.handleMetrics)
	mux.HandleFunc("GET /debug/trace", TraceHandler(a.s.Tracer(), a.s.cfg.Log))
	return mux
}

// SolveRequest is the body of POST /v1/solve — what a client sends and
// what a coordinator dispatches: a JobSpec plus the synchronous-wait flag
// and the cluster handoff fields. ID pins the job's identity across nodes
// and the run warm-starts from ResumeHash, a resume record already in this
// node's artifact store: the coordinator pushes the record (and the
// adapted mesh it names, if any) once, then hands off by hash.
type SolveRequest struct {
	JobSpec
	Wait       bool   `json:"wait,omitempty"`
	ID         string `json:"id,omitempty"`
	ResumeHash string `json:"resume_hash,omitempty"`
}

func (a *API) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if !DecodeBody(w, r, 1<<20, &req) {
		return
	}
	var ck *meshio.Checkpoint
	if req.ResumeHash != "" {
		raw, err := a.s.Store().Get(req.ResumeHash)
		if err != nil {
			// The referenced blob must be pushed before the handoff; 412
			// tells the coordinator to push it, or to place elsewhere.
			WriteErr(w, http.StatusPreconditionFailed, fmt.Errorf("resume record artifact: %w", err))
			return
		}
		// The decoder verifies the CRC trailer, so a corrupted record is
		// rejected here rather than warm-starting the solver from garbage.
		if ck, err = meshio.DecodeCheckpoint(raw); err != nil {
			WriteErr(w, http.StatusBadRequest, fmt.Errorf("parsing resume record artifact: %w", err))
			return
		}
	}
	var j *Job
	var err error
	if req.ID != "" || ck != nil {
		j, err = a.s.SubmitResume(req.ID, req.JobSpec, ck)
	} else {
		j, err = a.s.Submit(req.JobSpec)
	}
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(a.s.RetryAfterHint()))
		WriteErr(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", strconv.Itoa(a.s.RetryAfterHint()))
		WriteErr(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrNoArtifact):
		WriteErr(w, http.StatusPreconditionFailed, err)
		return
	case err != nil:
		WriteErr(w, http.StatusBadRequest, err)
		return
	}
	AnswerSubmit(w, r, req.Wait, j.Done(), j.View)
}

func (a *API) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, err := a.s.Job(r.PathValue("id"))
	if err != nil {
		WriteErr(w, http.StatusNotFound, err)
		return
	}
	v := j.View()
	if v.ResultHash != "" {
		// The result's content hash is a perfect validator: polling
		// clients and the cluster's result fan-out revalidate with
		// If-None-Match and skip the body (history included) on a match.
		etag := `"` + v.ResultHash + `"`
		w.Header().Set("ETag", etag)
		if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	WriteJSON(w, http.StatusOK, v)
}

// etagMatch implements the If-None-Match comparison: a wildcard or any
// listed entity tag equal to ours (weak prefixes tolerated).
func etagMatch(header, etag string) bool {
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == etag {
			return true
		}
	}
	return false
}

func (a *API) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, err := a.s.Cancel(r.PathValue("id"))
	if err != nil {
		WriteErr(w, http.StatusNotFound, err)
		return
	}
	WriteJSON(w, http.StatusOK, j.View())
}

// handleHealthz is the liveness probe: 200 for as long as the process can
// serve requests at all, even while draining. Routability is /readyz's job.
func (a *API) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if a.s.Draining() {
		status = "draining"
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":  status,
		"queued":  a.s.QueueDepth(),
		"running": a.s.Running(),
	})
}

// readyView is the /readyz body; coordinators use Queued+Running as the
// node's load signal for work-stealing placement.
type readyView struct {
	Status   string `json:"status"` // ready | draining | saturated
	Queued   int    `json:"queued"`
	Running  int    `json:"running"`
	QueueCap int    `json:"queue_cap"`
}

// handleReadyz is the readiness probe: 503 (with Retry-After) while the
// server is draining or its admission queue is full, so a coordinator
// stops routing to the node before requests start bouncing — and, in the
// drain case, before the process exits.
func (a *API) handleReadyz(w http.ResponseWriter, r *http.Request) {
	v := readyView{
		Status:   "ready",
		Queued:   a.s.QueueDepth(),
		Running:  a.s.Running(),
		QueueCap: a.s.QueueCap(),
	}
	code := http.StatusOK
	switch {
	case a.s.Draining():
		v.Status, code = "draining", http.StatusServiceUnavailable
	case a.s.Saturated():
		v.Status, code = "saturated", http.StatusServiceUnavailable
	}
	if code != http.StatusOK {
		w.Header().Set("Retry-After", strconv.Itoa(a.s.RetryAfterHint()))
	}
	WriteJSON(w, code, v)
}

// handleJobCheckpoint streams the job's latest resume record in the
// binary meshio format. 404 until the first checkpoint cycle completes (or
// when the server runs without -checkpoint-every). The coordinator polls
// this while the job runs; whatever record it last pulled — with the
// adapted mesh it names, fetched from this node's artifact store — is what
// a handoff resumes from if this node dies without warning.
func (a *API) handleJobCheckpoint(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := a.s.Job(id); err != nil {
		WriteErr(w, http.StatusNotFound, err)
		return
	}
	path := a.s.CheckpointFile(id)
	if path == "" {
		WriteErr(w, http.StatusNotFound, errors.New("serve: no checkpoint yet"))
		return
	}
	f, err := os.Open(path)
	if err != nil {
		WriteErr(w, http.StatusNotFound, err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	io.Copy(w, f)
}

// handleMetrics renders the service metrics in the Prometheus text
// exposition format: live gauges read from their owners, the counter
// table declared beside Metrics, the artifact store's counters, the
// job-latency histograms, and per-engine and per-phase computational rates.
func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var e Exposition
	m, gov, art := a.s.Metrics(), a.s.Governor(), a.s.Store()

	e.Value("eul3dd_queue_depth", "jobs waiting for a runner", "gauge", a.s.QueueDepth())
	e.Value("eul3dd_jobs_running", "jobs currently solving", "gauge", a.s.Running())
	e.Counters(m.table())
	e.Value("eul3dd_engine_cache_hit_rate", "cache hit fraction", "gauge", fmt.Sprintf("%.4f", m.HitRate()))
	e.Value("eul3dd_engine_cache_size", "engines resident in the cache", "gauge", a.s.Cache().Len())
	as := art.Stats()
	e.Value("eul3dd_artifact_hits_total", "artifact store reads served", "counter", as.Hits)
	e.Value("eul3dd_artifact_misses_total", "artifact store reads missed (absent or quarantined)", "counter", as.Misses)
	e.Value("eul3dd_artifact_puts_total", "distinct artifacts stored", "counter", as.Puts)
	e.Value("eul3dd_artifact_dup_puts_total", "uploads deduplicated against existing content", "counter", as.DupPuts)
	e.Value("eul3dd_artifact_evictions_total", "artifact eviction actions under byte budgets", "counter", as.Evictions)
	e.Value("eul3dd_artifact_quarantines_total", "corrupt blobs quarantined", "counter", as.Quarantines)
	e.Value("eul3dd_artifact_count", "artifacts tracked (memory or disk)", "gauge", art.Len())
	e.Value("eul3dd_artifact_mem_bytes", "resident artifact payload bytes", "gauge", art.MemBytes())
	e.Value("eul3dd_artifact_disk_bytes", "on-disk artifact blob bytes", "gauge", art.DiskBytes())
	e.Value("eul3dd_worker_budget", "total pooled-worker budget", "gauge", gov.Cap())
	e.Value("eul3dd_workers_in_use", "pooled workers held by running jobs", "gauge", gov.InUse())
	e.Value("eul3dd_workers_peak", "high-water mark of pooled workers in use", "gauge", gov.Peak())

	// Job-latency histograms: time spent queued and time spent solving.
	m.QueueWait.WriteProm(&e, "eul3dd_job_queue_wait_seconds", "time from admission to dispatch")
	m.RunTime.WriteProm(&e, "eul3dd_job_run_seconds", "solver run time per job")

	// Per-engine computational rates from the accumulated perf.Stats; each
	// engine's seconds follow without a family header of their own.
	stats := a.s.Cache().EngineStats()
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	all := make([]perf.Stats, len(keys))
	e.Series("eul3dd_engine_mflops", "analytic Mflops per cached engine", "engine", len(keys), func(i int) (string, any) {
		all[i] = stats[keys[i]]
		return keys[i], fmt.Sprintf("%.1f", all[i].Total().Mflops())
	})
	for i, k := range keys {
		fmt.Fprintf(&e, "eul3dd_engine_seconds{engine=%q} %.4f\n", k, all[i].Total().Seconds)
	}

	// Fleet-wide per-phase breakdown: every cached engine's snapshot merged
	// phase-by-name, the service-level analogue of the paper's timing table.
	phases := perf.Merge(all...).Phases
	e.Series("eul3dd_solver_phase_seconds", "accumulated wall-clock per solver phase across cached engines", "phase", len(phases), func(i int) (string, any) {
		return phases[i].Name, fmt.Sprintf("%.4f", phases[i].Seconds)
	})
	e.Series("eul3dd_solver_phase_mflops", "analytic Mflops per solver phase across cached engines", "phase", len(phases), func(i int) (string, any) {
		return phases[i].Name, fmt.Sprintf("%.1f", phases[i].Mflops())
	})
	e.Serve(w)
}
