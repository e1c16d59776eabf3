package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"eul3d/internal/meshio"
)

// Tests for the cluster-facing surface of a node: the liveness/readiness
// split, Retry-After hints on shed responses, the checkpoint endpoint the
// coordinator polls, and resumable submission under a pinned job ID.

func getReady(t *testing.T, srv *httptest.Server) (*http.Response, readyView) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v readyView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return resp, v
}

func TestHTTPReadyzStates(t *testing.T) {
	s, srv := newTestServer(t, Config{QueueCap: 1, Runners: 1, WorkerBudget: 4, StateDir: t.TempDir()})

	// Fresh server: live and ready.
	resp, v := getReady(t, srv)
	if resp.StatusCode != http.StatusOK || v.Status != "ready" {
		t.Fatalf("fresh readyz: %d %q, want 200 ready", resp.StatusCode, v.Status)
	}
	if v.QueueCap != 1 {
		t.Errorf("queue_cap = %d, want 1", v.QueueCap)
	}

	// Occupy the runner and fill the queue: saturated, but still alive.
	running, err := s.Submit(chanSpec(4, 2, 2, 1, KindSingle, 0, 200000))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	waitCycles(t, running, 1)
	if _, err := s.Submit(chanSpec(4, 2, 2, 2, KindSingle, 0, 50)); err != nil {
		t.Fatal(err)
	}
	resp, v = getReady(t, srv)
	if resp.StatusCode != http.StatusServiceUnavailable || v.Status != "saturated" {
		t.Fatalf("saturated readyz: %d %q, want 503 saturated", resp.StatusCode, v.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("saturated readyz missing Retry-After")
	}
	// Liveness is unaffected by saturation.
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while saturated: %d, want 200", hresp.StatusCode)
	}

	// Draining: readiness drops before the process exits.
	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	deadline := time.Now().Add(30 * time.Second)
	for !s.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	resp, v = getReady(t, srv)
	if resp.StatusCode != http.StatusServiceUnavailable || v.Status != "draining" {
		t.Fatalf("draining readyz: %d %q, want 503 draining", resp.StatusCode, v.Status)
	}
	select {
	case <-drained:
	case <-time.After(60 * time.Second):
		t.Fatal("drain did not finish")
	}
}

func TestHTTPRetryAfterOnShed(t *testing.T) {
	s, srv := newTestServer(t, Config{QueueCap: 1, Runners: 1, WorkerBudget: 4, StateDir: t.TempDir()})
	running, err := s.Submit(chanSpec(4, 2, 2, 1, KindSingle, 0, 200000))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	waitCycles(t, running, 1)
	if _, err := s.Submit(chanSpec(4, 2, 2, 2, KindSingle, 0, 50)); err != nil {
		t.Fatal(err)
	}

	// Queue full -> 429 with a positive Retry-After.
	resp, _ := postJob(t, srv, smallJob)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", resp.StatusCode)
	}
	checkRetryAfter(t, resp)

	go s.Drain()
	deadline := time.Now().Add(30 * time.Second)
	for !s.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Draining -> 503 with a positive Retry-After.
	resp, _ = postJob(t, srv, smallJob)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: %d, want 503", resp.StatusCode)
	}
	checkRetryAfter(t, resp)
}

func checkRetryAfter(t *testing.T, resp *http.Response) {
	t.Helper()
	var secs int
	if _, err := fmt.Sscanf(resp.Header.Get("Retry-After"), "%d", &secs); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want integer >= 1 (%v)", resp.Header.Get("Retry-After"), err)
	}
}

// TestHTTPCheckpointEndpoint runs a job under periodic checkpointing and
// polls the coordinator-facing checkpoint endpoint until a CRC-valid
// snapshot with advancing cycle count comes back.
func TestHTTPCheckpointEndpoint(t *testing.T) {
	s, srv := newTestServer(t, Config{
		QueueCap: 4, Runners: 1, WorkerBudget: 4,
		StateDir: t.TempDir(), CheckpointEvery: 5,
	})

	// Unknown job: 404.
	resp, err := http.Get(srv.URL + "/v1/jobs/nope/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job checkpoint: %d, want 404", resp.StatusCode)
	}

	j, err := s.Submit(chanSpec(6, 3, 2, 3, KindSingle, 0, 200000))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	var raw []byte
	for time.Now().Before(deadline) {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + j.ID + "/checkpoint")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			buf := new(bytes.Buffer)
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			raw = buf.Bytes()
			break
		}
		resp.Body.Close()
		time.Sleep(5 * time.Millisecond)
	}
	if raw == nil {
		t.Fatal("no checkpoint served within 30s")
	}
	ck, err := meshio.DecodeCheckpoint(raw)
	if err != nil {
		t.Fatalf("served checkpoint does not parse: %v", err)
	}
	if ck.Cycle <= 0 || len(ck.History) != ck.Cycle {
		t.Fatalf("checkpoint cycle %d with %d history entries", ck.Cycle, len(ck.History))
	}
	if _, err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
}

// putArtifact uploads bytes to a server's artifact store and returns the
// hash it computed.
func putArtifact(t *testing.T, srv *httptest.Server, data []byte) string {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/artifacts", bytes.NewReader(data))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var put struct {
		Hash string `json:"hash"`
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT artifact status %d, want 201", resp.StatusCode)
	}
	if err := jsonDecode(resp, &put); err != nil {
		t.Fatal(err)
	}
	return put.Hash
}

// TestHTTPResumeBitwise interrupts a run with a drain, then hands the
// drained record over HTTP — uploaded to a second server's artifact store
// and named by resume_hash, under the original job ID — and requires the
// stitched history to be bitwise identical to an uninterrupted reference
// run.
func TestHTTPResumeBitwise(t *testing.T) {
	const cycles = 400
	spec := chanSpec(6, 3, 2, 9, KindSingle, 0, cycles)

	// Reference: one uninterrupted run.
	ref := NewScheduler(Config{QueueCap: 4, Runners: 1, WorkerBudget: 4})
	defer ref.Stop()
	rj, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, rj)
	if st := rj.State(); st != StateCompleted {
		t.Fatalf("reference run ended %s", st)
	}
	want := rj.View().History
	if len(want) != cycles {
		t.Fatalf("reference history %d entries, want %d", len(want), cycles)
	}

	// Interrupted: drain the first node mid-run, keep its checkpoint.
	first := NewScheduler(Config{QueueCap: 4, Runners: 1, WorkerBudget: 4, StateDir: t.TempDir()})
	j, err := first.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitCycles(t, j, 5)
	first.Drain()
	if st := j.State(); st != StateDrained {
		t.Fatalf("first-node job ended %s, want drained (raise cycles if the run outpaced the drain)", st)
	}
	raw, err := os.ReadFile(first.CheckpointFile(j.ID))
	if err != nil {
		t.Fatal(err)
	}
	first.Stop()

	// Handoff: push the record to a fresh server and replay the spec by
	// hash over HTTP, pinning the original job ID as the coordinator would.
	_, srv := newTestServer(t, Config{QueueCap: 4, Runners: 1, WorkerBudget: 4})
	body, err := json.Marshal(map[string]any{
		"mesh": spec.Mesh, "mach": spec.Mach, "engine": spec.Engine,
		"cycles": spec.Cycles, "id": j.ID,
		"resume_hash": putArtifact(t, srv, raw),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, v := postJob(t, srv, string(body))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume submit: %d, want 202", resp.StatusCode)
	}
	if v.ID != j.ID {
		t.Fatalf("resumed job id %q, want pinned %q", v.ID, j.ID)
	}
	deadline := time.Now().Add(60 * time.Second)
	for v.State != StateCompleted && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		v = getJob(t, srv, j.ID)
	}
	if v.State != StateCompleted {
		t.Fatalf("resumed job stuck in %s", v.State)
	}
	if len(v.History) != cycles {
		t.Fatalf("resumed history %d entries, want %d", len(v.History), cycles)
	}
	for i := range want {
		if v.History[i] != want[i] {
			t.Fatalf("history diverges at cycle %d: %v != %v", i, v.History[i], want[i])
		}
	}
	// ID-reuse semantics: a finished record is superseded (a coordinator
	// may re-dispatch under the job's pinned identity), but a live job's
	// ID is a real conflict and must be refused.
	resp, _ = postJob(t, srv, string(body))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume over finished record: %d, want 202 (superseded)", resp.StatusCode)
	}
	resp, _ = postJob(t, srv, string(body))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate of live job: %d, want 400", resp.StatusCode)
	}
}
