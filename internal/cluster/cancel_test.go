package cluster

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"eul3d/internal/serve"
)

// gatedNode is a real eul3dd node behind a gate that can refuse solves
// with 429 and that reports the calls a test needs to order itself by.
type gatedNode struct {
	sched   *serve.Scheduler
	srv     *httptest.Server
	refuse  atomic.Bool
	refused chan struct{} // a token per refused POST /v1/solve
	deleted chan struct{} // a token per DELETE /v1/jobs/{id}
}

func startGatedNode(t *testing.T) *gatedNode {
	t.Helper()
	g := &gatedNode{
		sched:   serve.NewScheduler(serve.Config{QueueCap: 8, Runners: 2, WorkerBudget: 8}),
		refused: make(chan struct{}, 1),
		deleted: make(chan struct{}, 1),
	}
	node := serve.NewAPI(g.sched).Handler()
	g.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/solve" && g.refuse.Load():
			w.WriteHeader(http.StatusTooManyRequests)
			select {
			case g.refused <- struct{}{}:
			default:
			}
			return
		case r.Method == http.MethodDelete:
			defer func() {
				select {
				case g.deleted <- struct{}{}:
				default:
				}
			}()
		}
		node.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { g.srv.Close(); g.sched.Stop() })
	return g
}

func awaitToken(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// A cancel that arrives while the coordinator holds the job unplaced —
// placement backoff, degraded-mode parking, a handoff gap — must end the
// job cancelled there and then, not be forgotten and the job dispatched
// anyway once a node takes it.
func TestClusterCancelWhileUnplaced(t *testing.T) {
	t.Run("refused placement", func(t *testing.T) {
		g := startGatedNode(t)
		g.refuse.Store(true)
		c := New(fastCfg())
		defer c.Close()
		if err := c.AddNode("n1", g.srv.URL); err != nil {
			t.Fatal(err)
		}
		waitRoutable(t, c, 1)

		j := submitCluster(t, c, clusterSpec(5, 50))
		awaitToken(t, g.refused, "the node to refuse the dispatch")
		if _, err := c.Cancel(j.ID); err != nil {
			t.Fatal(err)
		}
		g.refuse.Store(false)
		if v := waitClusterDone(t, j); v.State != serve.StateCancelled {
			t.Fatalf("job ended %s (%d cycles, err %q), want cancelled", v.State, v.Cycles, v.Error)
		}
		if got := c.Metrics().Dispatches.Load(); got != 0 {
			t.Errorf("%d dispatches of a job cancelled before any node took it, want 0", got)
		}
		if got := g.sched.Metrics().Submitted.Load(); got != 0 {
			t.Errorf("node admitted %d jobs, want 0", got)
		}
		if got := c.Metrics().Cancelled.Load(); got != 1 {
			t.Errorf("cancelled counter %d, want 1", got)
		}
	})

	t.Run("handoff gap", func(t *testing.T) {
		g := startGatedNode(t)
		c := New(fastCfg())
		defer c.Close()
		if err := c.AddNode("n1", g.srv.URL); err != nil {
			t.Fatal(err)
		}
		waitRoutable(t, c, 1)

		j := submitCluster(t, c, clusterSpec(6, 500000))
		waitClusterState(t, j, serve.StateRunning)
		// Draining the only node forces a handoff with nowhere to go: the
		// coordinator cancels the run on the old node (the DELETE) and then
		// holds the job unplaced, parked until a node turns up.
		if err := c.DrainNode("n1"); err != nil {
			t.Fatal(err)
		}
		awaitToken(t, g.deleted, "the handoff's cancel on the drained node")
		if _, err := c.Cancel(j.ID); err != nil {
			t.Fatal(err)
		}
		v := waitClusterDone(t, j)
		if v.State != serve.StateCancelled {
			t.Fatalf("job ended %s (err %q), want cancelled", v.State, v.Error)
		}
		if v.Handoffs != 1 {
			t.Errorf("handoffs %d, want 1", v.Handoffs)
		}
		if got := c.Metrics().Dispatches.Load(); got != 1 {
			t.Errorf("dispatches %d, want 1 (the original placement only)", got)
		}
	})
}
