package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"strconv"

	"eul3d/internal/serve"
)

// API is the HTTP facade over a Coordinator:
//
//	POST   /v1/solve             submit a JobSpec; ?wait=1 (or "wait":true) blocks
//	GET    /v1/jobs/{id}         cluster job view (node, handoffs, checkpoint cycle)
//	DELETE /v1/jobs/{id}         cooperative cancellation (forwarded)
//	PUT    /v1/artifacts         upload bytes once; returns {"hash": ...}
//	GET    /v1/artifacts/{hash}  fetch an artifact (proxied from a node on a local miss)
//	GET    /v1/nodes             node registry with health states
//	POST   /v1/nodes             register a node: {"name":..., "url":...}
//	POST   /v1/nodes/{name}/drain  operator drain: stop routing, hand off
//	GET    /healthz              coordinator liveness
//	GET    /metrics              Prometheus-style text metrics
//	GET    /debug/trace          flight-recorder dump (Chrome trace-event JSON)
type API struct {
	c *Coordinator
}

// NewAPI wraps a coordinator.
func NewAPI(c *Coordinator) *API { return &API{c: c} }

// Handler builds the route table.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", a.handleSolve)
	mux.HandleFunc("GET /v1/jobs/{id}", a.handleGetJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", a.handleCancelJob)
	// Uploads land in the coordinator's cache and placement pushes them to
	// whichever node a referencing job lands on ("upload once, solve
	// everywhere"); a local miss is proxied from a live node.
	serve.ArtifactRoutes(mux, a.c.store,
		func() { a.c.met.ArtifactUploads.Add(1) },
		func(hash string) []byte { return a.c.proxyArtifact(hash, "") })
	mux.HandleFunc("GET /v1/nodes", a.handleGetNodes)
	mux.HandleFunc("POST /v1/nodes", a.handleAddNode)
	mux.HandleFunc("POST /v1/nodes/{name}/drain", a.handleDrainNode)
	mux.HandleFunc("GET /healthz", a.handleHealthz)
	mux.HandleFunc("GET /metrics", a.handleMetrics)
	mux.HandleFunc("GET /debug/trace", serve.TraceHandler(a.c.Tracer(), a.c.cfg.Log))
	return mux
}

type solveRequest struct {
	serve.JobSpec
	Wait bool `json:"wait,omitempty"`
}

func (a *API) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req solveRequest
	if !serve.DecodeBody(w, r, 1<<20, &req) {
		return
	}
	j, err := a.c.Submit(req.JobSpec)
	switch {
	case errors.Is(err, ErrNoHealthyNodes):
		// Degraded mode: shed with a hint instead of queueing unboundedly.
		w.Header().Set("Retry-After", strconv.Itoa(a.c.RetryAfterHint()))
		serve.WriteErr(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		serve.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	serve.AnswerSubmit(w, r, req.Wait, j.Done(), j.View)
}

func (a *API) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, err := a.c.Job(r.PathValue("id"))
	if err != nil {
		serve.WriteErr(w, http.StatusNotFound, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, j.View())
}

func (a *API) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, err := a.c.Cancel(r.PathValue("id"))
	if err != nil {
		serve.WriteErr(w, http.StatusNotFound, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, j.View())
}

func (a *API) handleGetNodes(w http.ResponseWriter, r *http.Request) {
	views := a.c.NodeViews()
	sort.Slice(views, func(i, k int) bool { return views[i].Name < views[k].Name })
	serve.WriteJSON(w, http.StatusOK, views)
}

func (a *API) handleAddNode(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
		URL  string `json:"url"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		serve.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	if err := a.c.AddNode(req.Name, req.URL); err != nil {
		serve.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "registered", "name": req.Name})
}

func (a *API) handleDrainNode(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := a.c.DrainNode(name); err != nil {
		serve.WriteErr(w, http.StatusNotFound, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "draining", "name": name})
}

func (a *API) handleHealthz(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"nodes":    len(a.c.NodeViews()),
		"routable": a.c.routableCount(),
	})
}

// handleMetrics renders the cluster metrics in the Prometheus text format:
// the counter table declared beside Metrics, the artifact cache's
// counters, and one gauge family per node health reading.
func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var e serve.Exposition
	e.Counters(a.c.met.table())
	st := a.c.store.Stats()
	e.Value("eul3dc_artifact_hits_total", "artifact cache hits", "counter", st.Hits)
	e.Value("eul3dc_artifact_misses_total", "artifact cache misses", "counter", st.Misses)
	e.Value("eul3dc_artifact_count", "artifacts in the coordinator cache", "gauge", a.c.store.Len())
	e.Value("eul3dc_artifact_mem_bytes", "bytes held in the coordinator cache", "gauge", a.c.store.MemBytes())

	views := a.c.NodeViews()
	sort.Slice(views, func(i, k int) bool { return views[i].Name < views[k].Name })
	perNode := func(name, help string, reading func(NodeView) int) {
		e.Series(name, help, "node", len(views), func(i int) (string, any) {
			return views[i].Name, reading(views[i])
		})
	}
	perNode("eul3dc_node_up", "1 while the node is routable (healthy and not saturated)", func(v NodeView) int {
		if v.status == StatusHealthy && !v.Saturated {
			return 1
		}
		return 0
	})
	perNode("eul3dc_node_state", "health state machine position (0 unknown, 1 healthy, 2 suspect, 3 unhealthy, 4 draining)",
		func(v NodeView) int { return int(v.status) })
	perNode("eul3dc_node_missed_beats", "consecutive failed probes", func(v NodeView) int { return v.Missed })
	perNode("eul3dc_node_load", "queued+running the node last reported", func(v NodeView) int { return v.Load })
	perNode("eul3dc_node_inflight", "jobs this coordinator has placed on the node", func(v NodeView) int { return v.Inflight })
	perNode("eul3dc_node_breaker_trips", "times the node's circuit breaker opened", func(v NodeView) int { return v.Trips })
	e.Serve(w)
}
