package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Scheduler, *httptest.Server) {
	t.Helper()
	s := NewScheduler(cfg)
	srv := httptest.NewServer(NewAPI(s).Handler())
	t.Cleanup(func() { srv.Close(); s.Stop() })
	return s, srv
}

func postJob(t *testing.T, srv *httptest.Server, body string) (*http.Response, JobView) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/solve", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return resp, v
}

func getJob(t *testing.T, srv *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: %d", id, resp.StatusCode)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

const smallJob = `{"mesh":{"nx":4,"ny":2,"nz":2,"seed":1},"mach":0.5,"engine":"single","cycles":10}`

// Async submit -> poll -> completed, with history and metrics populated.
func TestHTTPSubmitPollComplete(t *testing.T) {
	_, srv := newTestServer(t, Config{QueueCap: 4, Runners: 1, WorkerBudget: 4})
	resp, v := postJob(t, srv, smallJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %d, want 202", resp.StatusCode)
	}
	if v.ID == "" || v.State != StateQueued {
		t.Fatalf("bad accepted view: %+v", v)
	}
	deadline := time.Now().Add(30 * time.Second)
	var got JobView
	for time.Now().Before(deadline) {
		got = getJob(t, srv, v.ID)
		if got.State == StateCompleted {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got.State != StateCompleted {
		t.Fatalf("job stuck in %s", got.State)
	}
	if got.Cycles != 10 || len(got.History) != 10 {
		t.Errorf("cycles=%d history=%d, want 10", got.Cycles, len(got.History))
	}
	if got.FinalNorm == 0 || got.InitialNorm == 0 {
		t.Error("norms not populated")
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if metricValue(t, string(body), "eul3dd_jobs_completed_total") != 1 {
		t.Error("metrics do not report the completed job")
	}
	if metricValue(t, string(body), "eul3dd_engine_cache_size") != 1 {
		t.Error("metrics do not report the cached engine")
	}
}

// Synchronous submit blocks until the result is final.
func TestHTTPSyncSolve(t *testing.T) {
	_, srv := newTestServer(t, Config{QueueCap: 4, Runners: 1, WorkerBudget: 4})
	resp, v := postJob(t, srv, `{"mesh":{"nx":4,"ny":2,"nz":2,"seed":1},"mach":0.5,"cycles":6,"wait":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync POST status %d, want 200", resp.StatusCode)
	}
	if v.State != StateCompleted || v.Cycles != 6 {
		t.Fatalf("sync view: %+v", v)
	}
}

// Queue overflow maps to 429, bad specs to 400, unknown jobs to 404,
// cancellation to DELETE.
func TestHTTPErrorsAndCancel(t *testing.T) {
	_, srv := newTestServer(t, Config{QueueCap: 1, Runners: 1, WorkerBudget: 4})

	// Occupy the runner, then the single queue slot.
	_, blocker := postJob(t, srv, `{"mesh":{"nx":4,"ny":2,"nz":2,"seed":1},"mach":0.5,"cycles":200000}`)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && getJob(t, srv, blocker.ID).State != StateRunning {
		time.Sleep(2 * time.Millisecond)
	}
	_, queued := postJob(t, srv, smallJob)

	// The probe differs from every live job by one cycle, so it cannot
	// coalesce past the queue bound.
	if resp, _ := postJob(t, srv, `{"mesh":{"nx":4,"ny":2,"nz":2,"seed":1},"mach":0.5,"engine":"single","cycles":11}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429", resp.StatusCode)
	}
	if resp, _ := postJob(t, srv, `{"mesh":{"nx":0},"cycles":10}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJob(t, srv, `{not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status %d, want 400", resp.StatusCode)
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/nonexistent")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job status %d, want 404", resp.StatusCode)
	}

	// Cancel the queued job first (so the freed runner cannot complete it),
	// then the running blocker.
	for _, id := range []string{queued.ID, blocker.ID} {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
		dresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		dresp.Body.Close()
		if dresp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE %s status %d", id, dresp.StatusCode)
		}
	}
	for _, id := range []string{blocker.ID, queued.ID} {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) && getJob(t, srv, id).State != StateCancelled {
			time.Sleep(2 * time.Millisecond)
		}
		if st := getJob(t, srv, id).State; st != StateCancelled {
			t.Fatalf("job %s state %s after DELETE", id, st)
		}
	}
}

func TestHTTPHealthz(t *testing.T) {
	s, srv := newTestServer(t, Config{QueueCap: 4, Runners: 1, WorkerBudget: 4})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" {
		t.Fatalf("healthz status %v, want ok", h["status"])
	}
	_ = s
}

// The metrics body is well-formed Prometheus text: every eul3dd_ line
// parses, and the governor gauges never contradict the budget.
func TestHTTPMetricsShape(t *testing.T) {
	_, srv := newTestServer(t, Config{QueueCap: 4, Runners: 2, WorkerBudget: 6})
	for i := 0; i < 3; i++ {
		postJob(t, srv, fmt.Sprintf(`{"mesh":{"nx":4,"ny":2,"nz":2,"seed":1},"mach":0.5,"engine":"sm","workers":2,"cycles":8,"wait":true,"priority":%d}`, i))
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	s := string(body)
	budget := metricValue(t, s, "eul3dd_worker_budget")
	peak := metricValue(t, s, "eul3dd_workers_peak")
	if peak > budget {
		t.Fatalf("workers_peak %v exceeds worker_budget %v", peak, budget)
	}
	if metricValue(t, s, "eul3dd_jobs_completed_total") != 3 {
		t.Error("completed_total mismatch")
	}
	if metricValue(t, s, "eul3dd_engine_builds_total") != 1 {
		t.Error("three identical jobs should share one engine build")
	}
	if hr := metricValue(t, s, "eul3dd_engine_cache_hit_rate"); hr <= 0 {
		t.Errorf("hit rate %v, want > 0", hr)
	}
}

// The fleet phase table merges the cached engines phase by name. A
// sequential single-grid engine is the pooled engine at one worker, so with
// one of each cached both report the same six step phases, the table has
// exactly those six rows, and no single-phase "step" row is left.
func TestHTTPPhaseSecondsMerged(t *testing.T) {
	s, srv := newTestServer(t, Config{Runners: 1, WorkerBudget: 2})
	postJob(t, srv, `{"mesh":{"nx":4,"ny":2,"nz":2,"seed":1},"mach":0.5,"engine":"single","cycles":8,"wait":true}`)
	postJob(t, srv, `{"mesh":{"nx":4,"ny":2,"nz":2,"seed":1},"mach":0.5,"engine":"sm","workers":2,"cycles":8,"wait":true}`)
	want := []string{"timestep", "convective", "dissipation", "residual", "smoothing", "update"}
	engines := s.Cache().EngineStats()
	if len(engines) != 2 {
		t.Fatalf("%d cached engines, want a single and an sm one", len(engines))
	}
	for k, st := range engines {
		var names []string
		for _, p := range st.Phases {
			names = append(names, p.Name)
		}
		if !slices.Equal(names, want) {
			t.Errorf("engine %s reports phases %v, want %v", k, names, want)
		}
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var rows []string
	for _, m := range regexp.MustCompile(`(?m)^eul3dd_solver_phase_seconds\{phase="([^"]*)"\}`).FindAllStringSubmatch(string(body), -1) {
		rows = append(rows, m[1])
	}
	if !slices.Equal(rows, want) {
		t.Errorf("eul3dd_solver_phase_seconds rows %v, want %v", rows, want)
	}
}
