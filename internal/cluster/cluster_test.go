package cluster

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"eul3d/internal/serve"
)

func jsonBody(s string) io.Reader { return strings.NewReader(s) }

// In-process cluster tests: real serve schedulers behind httptest servers
// play the nodes, so placement, health detection, checkpoint pulls and
// handoff run over genuine HTTP without spawning processes. (Process-level
// kill -9 coverage lives in the cmd/eul3dc smoke test.)

type testNode struct {
	sched *serve.Scheduler
	srv   *httptest.Server
}

func startNode(t *testing.T, cfg serve.Config) *testNode {
	t.Helper()
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 8
	}
	if cfg.Runners == 0 {
		cfg.Runners = 2
	}
	if cfg.WorkerBudget == 0 {
		cfg.WorkerBudget = 8
	}
	s := serve.NewScheduler(cfg)
	srv := httptest.NewServer(serve.NewAPI(s).Handler())
	n := &testNode{sched: s, srv: srv}
	t.Cleanup(n.kill)
	return n
}

// kill makes the node unreachable and tears down its scheduler; safe to
// call twice (cleanup after an explicit mid-test kill).
func (n *testNode) kill() {
	n.srv.Close()
	n.sched.Stop()
}

func fastCfg() Config {
	return Config{
		HeartbeatInterval: 25 * time.Millisecond,
		// Generous probe budget: every node here shares one CPU-saturated
		// test process, so a tight timeout would flap live nodes. Dead-node
		// detection stays fast — connection refused fails immediately.
		ProbeTimeout:  500 * time.Millisecond,
		CallTimeout:   5 * time.Second,
		MissThreshold: 3,
		RecoverBeats:  2,
		FetchInterval: 5 * time.Millisecond,
		BackoffBase:   5 * time.Millisecond,
		BackoffMax:    50 * time.Millisecond,
		ParkTimeout:   10 * time.Second,
	}
}

func waitRoutable(t *testing.T, c *Coordinator, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.routableCount() >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("only %d routable nodes, want %d (views %+v)", c.routableCount(), want, c.NodeViews())
}

func clusterSpec(seed int64, cycles int) serve.JobSpec {
	return serve.JobSpec{
		Mesh:   serve.MeshSpec{NX: 6, NY: 3, NZ: 2, Seed: seed},
		Mach:   0.5,
		Engine: serve.KindSingle,
		Cycles: cycles,
	}
}

func waitClusterDone(t *testing.T, j *cjob) JobView {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("cluster job %s stuck in %s", j.ID, j.View().State)
	}
	return j.View()
}

func TestClusterJobsCompleteAcrossNodes(t *testing.T) {
	n1 := startNode(t, serve.Config{})
	n2 := startNode(t, serve.Config{})
	c := New(fastCfg())
	defer c.Close()
	if err := c.AddNode("n1", n1.srv.URL); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNode("n2", n2.srv.URL); err != nil {
		t.Fatal(err)
	}
	waitRoutable(t, c, 2)

	var jobs []*cjob
	for i := 0; i < 4; i++ {
		j, err := c.Submit(clusterSpec(int64(i+1), 50))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		v := waitClusterDone(t, j)
		if v.State != serve.StateCompleted {
			t.Fatalf("job %s ended %s: %s", j.ID, v.State, v.Error)
		}
		if v.Node == "" || len(v.History) != 50 {
			t.Fatalf("job %s: node %q, %d history entries", j.ID, v.Node, len(v.History))
		}
	}
	if got := c.Metrics().Completed.Load(); got != 4 {
		t.Errorf("completed counter %d, want 4", got)
	}

	// Warm affinity: repeats of one spec land on the node that built its
	// engine, regardless of ring position.
	a, err := c.Submit(clusterSpec(77, 40))
	if err != nil {
		t.Fatal(err)
	}
	va := waitClusterDone(t, a)
	b, err := c.Submit(clusterSpec(77, 40))
	if err != nil {
		t.Fatal(err)
	}
	vb := waitClusterDone(t, b)
	if va.Node != vb.Node {
		t.Errorf("warm key moved nodes: %s then %s", va.Node, vb.Node)
	}
}

func TestClusterShedsWithNoHealthyNode(t *testing.T) {
	c := New(fastCfg())
	defer c.Close()
	if _, err := c.Submit(clusterSpec(1, 10)); !errors.Is(err, ErrNoHealthyNodes) {
		t.Fatalf("submit with no nodes: %v, want ErrNoHealthyNodes", err)
	}
	// A registered-but-dead node must not change the answer.
	if err := c.AddNode("dead", "http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(clusterSpec(1, 10)); !errors.Is(err, ErrNoHealthyNodes) {
		t.Fatalf("submit with dead node: %v, want ErrNoHealthyNodes", err)
	}
	if got := c.Metrics().Sheds.Load(); got != 2 {
		t.Errorf("sheds counter %d, want 2", got)
	}

	// Over HTTP the shed is a 503 with a Retry-After hint.
	api := httptest.NewServer(NewAPI(c).Handler())
	defer api.Close()
	resp, err := http.Post(api.URL+"/v1/solve", "application/json",
		jsonBody(`{"mesh":{"nx":6,"ny":3,"nz":2,"seed":1},"mach":0.5,"engine":"single","cycles":10}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded submit: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded 503 missing Retry-After")
	}
}

// TestClusterHandoffBitwise is the core fault-tolerance property at the
// package level: kill the node running a job after the coordinator has
// pulled a checkpoint, and the job must finish on the surviving node with
// a history bitwise identical to an uninterrupted single-node run.
func TestClusterHandoffBitwise(t *testing.T) {
	const cycles = 2000
	spec := clusterSpec(9, cycles)

	// Uninterrupted reference.
	ref := serve.NewScheduler(serve.Config{QueueCap: 4, Runners: 1, WorkerBudget: 4})
	defer ref.Stop()
	rj, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-rj.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("reference run did not finish")
	}
	want := rj.View().History
	if len(want) != cycles {
		t.Fatalf("reference history %d entries, want %d", len(want), cycles)
	}

	nodes := map[string]*testNode{
		"n1": startNode(t, serve.Config{StateDir: t.TempDir(), CheckpointEvery: 25}),
		"n2": startNode(t, serve.Config{StateDir: t.TempDir(), CheckpointEvery: 25}),
	}
	c := New(fastCfg())
	defer c.Close()
	for name, n := range nodes {
		if err := c.AddNode(name, n.srv.URL); err != nil {
			t.Fatal(err)
		}
	}
	waitRoutable(t, c, 2)

	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until a checkpoint has been pulled off the running node, so the
	// kill happens with handoff state in hand.
	deadline := time.Now().Add(60 * time.Second)
	var victim string
	for time.Now().Before(deadline) {
		v := j.View()
		if v.CheckpointCycle > 0 && v.Node != "" {
			victim = v.Node
			break
		}
		if v.State == serve.StateCompleted {
			t.Fatal("job finished before a checkpoint was pulled; raise cycles")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if victim == "" {
		t.Fatal("no checkpoint pulled within 60s")
	}
	killedAt := time.Now()
	nodes[victim].kill()

	// The dead node must be detected within the miss threshold (plus
	// generous scheduling slack) and the job handed off.
	for {
		if time.Now().After(killedAt.Add(30 * time.Second)) {
			t.Fatalf("node %s never marked unhealthy (views %+v)", victim, c.NodeViews())
		}
		if n := c.nodeByName(victim); n != nil && n.statusNow() == StatusUnhealthy {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	v := waitClusterDone(t, j)
	if v.State != serve.StateCompleted {
		t.Fatalf("job ended %s: %s", v.State, v.Error)
	}
	if v.Node == victim {
		t.Fatalf("job completed on the killed node %s", victim)
	}
	if v.Handoffs < 1 {
		t.Errorf("handoffs = %d, want >= 1", v.Handoffs)
	}
	if got := c.Metrics().Handoffs.Load(); got < 1 {
		t.Errorf("handoff counter %d, want >= 1", got)
	}
	if got := c.Metrics().CkptPulls.Load(); got < 1 {
		t.Errorf("checkpoint-pull counter %d, want >= 1", got)
	}
	if len(v.History) != cycles {
		t.Fatalf("final history %d entries, want %d", len(v.History), cycles)
	}
	for i := range want {
		if v.History[i] != want[i] {
			t.Fatalf("history diverges at cycle %d after handoff: %v != %v", i, v.History[i], want[i])
		}
	}
}

// TestClusterAdaptiveHandoffBitwise kills the node running an adaptive job
// once the coordinator holds a record from past the first epoch — a record
// naming a refined mesh that only the dead node and the coordinator hold.
// The coordinator moves both by hash, and the job finishes on the survivor
// with the history and result of an uninterrupted run.
func TestClusterAdaptiveHandoffBitwise(t *testing.T) {
	spec := serve.JobSpec{Scenario: "sod", Adapt: &serve.AdaptSpec{Interval: 30, Epochs: 2}}

	ref := serve.NewScheduler(serve.Config{QueueCap: 4, Runners: 1, WorkerBudget: 4})
	defer ref.Stop()
	rj, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-rj.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("reference run did not finish")
	}
	want := rj.View()
	if want.State != serve.StateCompleted || len(want.AdaptEpochs) == 0 {
		t.Fatalf("reference ended %s with %d epochs (err %q)", want.State, len(want.AdaptEpochs), want.Error)
	}

	nodes := map[string]*testNode{
		"n1": startNode(t, serve.Config{StateDir: t.TempDir(), CheckpointEvery: 10}),
		"n2": startNode(t, serve.Config{StateDir: t.TempDir(), CheckpointEvery: 10}),
	}
	c := New(fastCfg())
	defer c.Close()
	for name, n := range nodes {
		if err := c.AddNode(name, n.srv.URL); err != nil {
			t.Fatal(err)
		}
	}
	waitRoutable(t, c, 2)

	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	var victim string
	for victim == "" && time.Now().Before(deadline) {
		switch v := j.View(); {
		case v.State == serve.StateCompleted:
			t.Fatal("job finished before a record past the first epoch was pulled; raise cycles")
		case v.CheckpointCycle > want.AdaptEpochs[0].Step && v.Node != "":
			victim = v.Node
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if victim == "" {
		t.Fatal("no record past the first epoch pulled within 60s")
	}
	nodes[victim].kill()

	v := waitClusterDone(t, j)
	if v.State != serve.StateCompleted {
		t.Fatalf("job ended %s: %s", v.State, v.Error)
	}
	if v.Node == victim || v.Handoffs < 1 {
		t.Fatalf("job completed on %s after %d handoffs; %s was killed", v.Node, v.Handoffs, victim)
	}
	if len(v.History) != len(want.History) {
		t.Fatalf("final history %d entries, want %d", len(v.History), len(want.History))
	}
	for i := range want.History {
		if v.History[i] != want.History[i] {
			t.Fatalf("history diverges at step %d after handoff: %v != %v", i, v.History[i], want.History[i])
		}
	}
	if v.ResultHash != want.ResultHash {
		t.Fatalf("result hash %s after handoff, want %s", v.ResultHash, want.ResultHash)
	}
}

// TestClusterOperatorDrainHandsOff covers the graceful path: an operator
// drain moves the node's running job to a peer (from the drain checkpoint)
// and the node stops receiving work.
func TestClusterOperatorDrainHandsOff(t *testing.T) {
	nodes := map[string]*testNode{
		"n1": startNode(t, serve.Config{StateDir: t.TempDir(), CheckpointEvery: 25}),
		"n2": startNode(t, serve.Config{StateDir: t.TempDir(), CheckpointEvery: 25}),
	}
	c := New(fastCfg())
	defer c.Close()
	for name, n := range nodes {
		if err := c.AddNode(name, n.srv.URL); err != nil {
			t.Fatal(err)
		}
	}
	waitRoutable(t, c, 2)

	j, err := c.Submit(clusterSpec(5, 2000))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	var victim string
	for time.Now().Before(deadline) {
		if v := j.View(); v.Node != "" && v.Cycles > 0 {
			victim = v.Node
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if victim == "" {
		t.Fatal("job never started")
	}
	if err := c.DrainNode(victim); err != nil {
		t.Fatal(err)
	}
	// Drain the node's scheduler too, as eul3dd would on SIGTERM.
	go nodes[victim].sched.Drain()

	v := waitClusterDone(t, j)
	if v.State != serve.StateCompleted {
		t.Fatalf("job ended %s: %s", v.State, v.Error)
	}
	if v.Node == victim {
		t.Fatalf("job completed on the drained node %s", victim)
	}
	if len(v.History) != 2000 {
		t.Fatalf("final history %d entries, want 2000", len(v.History))
	}
	if got := c.nodeByName(victim).statusNow(); got != StatusDraining {
		t.Errorf("drained node status %s, want draining", got)
	}
}

func TestClusterRoutePlacement(t *testing.T) {
	c := New(fastCfg())
	defer c.Close()
	// Hand-build the registry (no monitors) for deterministic statuses.
	addStatic := func(name string, st Status, inflight int) *node {
		n := &node{name: name, url: "http://" + name}
		n.status = st
		n.inflight.Store(int64(inflight))
		c.mu.Lock()
		c.nodes[name] = n
		c.ring.Add(name)
		c.mu.Unlock()
		return n
	}
	na := addStatic("a", StatusHealthy, 0)
	nb := addStatic("b", StatusHealthy, 0)
	nc_ := addStatic("c", StatusUnhealthy, 0)

	spec := clusterSpec(1, 10)
	key := spec.RouteKey()
	owner := c.ring.Owner(key)

	// Idle cluster: the ring owner gets the key (unless the owner is the
	// unhealthy node, in which case its first healthy successor does).
	n, ok := c.route(key, nil)
	if !ok {
		t.Fatal("route found no node")
	}
	if owner != "c" && n.name != owner {
		t.Errorf("idle route -> %s, want ring owner %s", n.name, owner)
	}
	if n.name == "c" {
		t.Error("routed to unhealthy node")
	}

	// Warm pin beats ring order; a pin to an unroutable node is ignored.
	other := na
	if n == na {
		other = nb
	}
	c.pin(key, other.name)
	if got, _ := c.route(key, nil); got != other {
		t.Errorf("pinned route -> %s, want %s", got.name, other.name)
	}
	c.pin(key, "c")
	if got, _ := c.route(key, nil); got.name == "c" {
		t.Error("pin to unhealthy node was honored")
	}
	c.dropPins("c")

	// Cold key with a loaded owner steals to the least-loaded peer.
	c.mu.Lock()
	delete(c.warm, key)
	c.mu.Unlock()
	ownerNode := c.nodeByName(c.ring.Owner(key))
	if ownerNode.statusNow() != StatusHealthy {
		// Owner is the unhealthy node: route already fails over; re-key the
		// test onto a key owned by a healthy node.
		for i := 0; ; i++ {
			spec := clusterSpec(int64(100+i), 10)
			key = spec.RouteKey()
			ownerNode = c.nodeByName(c.ring.Owner(key))
			if ownerNode.statusNow() == StatusHealthy {
				break
			}
		}
	}
	peer := na
	if ownerNode == na {
		peer = nb
	}
	ownerNode.inflight.Store(5)
	peer.inflight.Store(1)
	steals := c.Metrics().Steals.Load()
	if got, _ := c.route(key, nil); got != peer {
		t.Errorf("loaded-owner route -> %s, want steal to %s", got.name, peer.name)
	}
	if c.Metrics().Steals.Load() != steals+1 {
		t.Error("steal not counted")
	}

	// Excluding every healthy node leaves nothing.
	if _, ok := c.route(key, map[string]bool{"a": true, "b": true}); ok {
		t.Error("route succeeded with all healthy nodes excluded")
	}
	_ = nc_
}
