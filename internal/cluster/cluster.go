// Package cluster turns a fleet of eul3dd nodes into one fault-tolerant
// solving service. A Coordinator registers nodes, health-checks them with
// a heartbeat state machine (liveness probes, a missed-beat threshold, and
// a circuit breaker that quarantines flapping nodes for progressively
// longer), and routes jobs by consistent-hashing their engine-cache key —
// so repeat requests for a mesh land on the node whose engine cache is
// already warm — with work-stealing placement for cold keys.
//
// Robustness is the point: every coordinator→node call retries on a
// jittered exponential backoff that honors Retry-After hints, and each
// running job's periodic checkpoint is pulled off its node while it runs.
// When a node dies (SIGKILL, partition) or drains, its in-flight jobs are
// re-dispatched to healthy nodes from the last pulled checkpoint under
// their original IDs; because the solver is deterministic and checkpoints
// are bitwise-exact, a handed-off job's history and solution are bitwise
// identical to an uninterrupted single-node run. When no node is routable
// the coordinator degrades instead of queueing unboundedly: submissions
// are shed with a Retry-After hint until a node recovers.
//
// The paper's distributed runs assumed a fixed processor set that survives
// the whole computation; this layer removes that assumption at the service
// tier, the way asynchronous task-based solvers decouple work from the
// process topology.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"eul3d/internal/flight"
	"eul3d/internal/meshio"
	"eul3d/internal/serve"
	"eul3d/internal/store"
	"eul3d/internal/trace"
)

// ErrNoHealthyNodes is returned by Submit while no node is routable; the
// HTTP layer maps it to 503 with a Retry-After hint (degraded mode: shed,
// don't queue).
var ErrNoHealthyNodes = errors.New("cluster: no healthy node available")

// ErrNotFound is returned for unknown job or node names.
var ErrNotFound = errors.New("cluster: not found")

// Causes a job's context is cancelled with.
var (
	errCancelled = errors.New("cluster: cancelled by its last interested party")
	errClosed    = errors.New("cluster: coordinator closed")
)

// Config sizes a Coordinator.
type Config struct {
	HeartbeatInterval time.Duration // liveness probe period (default 1s)
	ProbeTimeout      time.Duration // per-probe budget (default interval/2)
	CallTimeout       time.Duration // submit/view/checkpoint call budget (default 5s)
	MissThreshold     int           // consecutive missed beats before unhealthy (default 3)
	RecoverBeats      int           // good beats to close the breaker (default 2)
	MaxRecoverBeats   int           // flap-penalty cap (default 32)
	FlapWindow        time.Duration // a re-failure within this of recovery doubles the quarantine (default 1m)
	FetchInterval     time.Duration // per-job view + checkpoint poll period (default 250ms)
	RetryBudget       int           // dispatch attempts per placement round (default 5)
	BackoffBase       time.Duration // first retry delay (default 100ms)
	BackoffMax        time.Duration // retry delay cap (default 5s)
	ParkTimeout       time.Duration // how long an orphaned job waits for a node before failing (default 2m)
	Log               *log.Logger
	Trace             *trace.Tracer // nil disables coordinator tracing
}

// Fixed placement and retry policy: each member stands on the ring as
// ringReplicas virtual nodes, a cold job whose ring owner runs
// stealThreshold or more coordinator-placed jobs goes to the least-loaded
// routable node instead, and the retry jitter draws from a fixed seed.
const (
	ringReplicas   = 64
	stealThreshold = 1
	backoffSeed    = 1
)

func (c *Config) fill() {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.HeartbeatInterval / 2
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 5 * time.Second
	}
	if c.MissThreshold <= 0 {
		c.MissThreshold = 3
	}
	if c.RecoverBeats <= 0 {
		c.RecoverBeats = 2
	}
	if c.MaxRecoverBeats <= 0 {
		c.MaxRecoverBeats = 32
	}
	if c.FlapWindow <= 0 {
		c.FlapWindow = time.Minute
	}
	if c.FetchInterval <= 0 {
		c.FetchInterval = 250 * time.Millisecond
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 5
	}
	if c.ParkTimeout <= 0 {
		c.ParkTimeout = 2 * time.Minute
	}
	if c.Log == nil {
		c.Log = log.New(io.Discard, "", 0)
	}
}

// Coordinator is the cluster front end: node registry + health monitor +
// job router. Create with New, register nodes with AddNode, submit with
// Submit, and Close when done.
type Coordinator struct {
	cfg Config
	met *Metrics
	trc clusterTrace
	bo  *Backoff
	hc  *http.Client

	// ctx is the root of every job's context and of every node call; Close
	// cancels it (under mu) with errClosed.
	ctx    context.Context
	cancel context.CancelCauseFunc

	// store caches artifacts passing through the coordinator — client
	// uploads, peer proxy fetches, pulled records and the meshes they name
	// — so placement can push them to nodes without a round trip to
	// wherever they came from. Memory-only: the nodes own the durable tier.
	// A job's latest record and its mesh stay pinned here until the job
	// settles, so a handoff never finds them evicted.
	store *store.Store

	mu      sync.Mutex
	nodes   map[string]*node
	ring    *Ring
	jobs    map[string]*cjob
	warm    map[string]string     // route key -> node the key's engine is warm on
	flights flight.Group[JobView] // spec hash -> in-flight job new identical submissions attach to

	wg sync.WaitGroup
}

// New builds a coordinator with no nodes.
func New(cfg Config) *Coordinator {
	cfg.fill()
	c := &Coordinator{
		cfg:   cfg,
		met:   &Metrics{},
		trc:   newClusterTrace(cfg.Trace),
		bo:    NewBackoff(cfg.BackoffBase, cfg.BackoffMax),
		hc:    &http.Client{},
		store: store.NewMemory(),
		nodes: make(map[string]*node),
		ring:  NewRing(),
		jobs:  make(map[string]*cjob),
		warm:  make(map[string]string),
	}
	c.ctx, c.cancel = context.WithCancelCause(context.Background())
	return c
}

// Metrics returns the coordinator's counter block.
func (c *Coordinator) Metrics() *Metrics { return c.met }

// Store returns the coordinator's artifact cache.
func (c *Coordinator) Store() *store.Store { return c.store }

// Tracer returns the flight recorder (nil when tracing is disabled).
func (c *Coordinator) Tracer() *trace.Tracer { return c.cfg.Trace }

// AddNode registers a node and starts its heartbeat monitor. Re-adding an
// existing name updates its URL and clears an operator drain.
func (c *Coordinator) AddNode(name, url string) error {
	if name == "" || url == "" {
		return errors.New("cluster: node name and url required")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ctx.Err() != nil {
		return errClosed
	}
	if n, ok := c.nodes[name]; ok {
		n.mu.Lock()
		n.url = url
		n.manualDrain = false
		n.mu.Unlock()
		n.client = newNodeClient(url, c.hc, c.cfg.CallTimeout)
		return nil
	}
	n := &node{name: name, url: url, client: newNodeClient(url, c.hc, c.cfg.CallTimeout)}
	c.nodes[name] = n
	c.ring.Add(name)
	c.wg.Add(1)
	go c.monitorNode(n)
	c.cfg.Log.Printf("node %s registered at %s", name, url)
	return nil
}

// DrainNode marks a node draining from the coordinator's side: no new
// work is routed to it and its in-flight jobs are handed off to healthy
// nodes from their last checkpoints (being cancelled on the drained node
// best-effort). The node's process is left running.
func (c *Coordinator) DrainNode(name string) error {
	c.mu.Lock()
	n, ok := c.nodes[name]
	c.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	n.setManualDrain(true)
	c.trc.nodeTrack(name).Instant(c.trc.phState, time.Now(), int64(StatusDraining))
	c.cfg.Log.Printf("node %s: operator drain", name)
	return nil
}

// NodeViews snapshots every registered node.
func (c *Coordinator) NodeViews() []NodeView {
	c.mu.Lock()
	names := make([]*node, 0, len(c.nodes))
	for _, n := range c.nodes {
		names = append(names, n)
	}
	c.mu.Unlock()
	out := make([]NodeView, 0, len(names))
	for _, n := range names {
		out = append(out, n.view())
	}
	return out
}

// Close stops the health monitors and job watchers. In-flight jobs keep
// running on their nodes; the coordinator simply stops observing them.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.cancel(errClosed)
	c.mu.Unlock()
	c.wg.Wait()
}

// sleep waits d, or less if ctx is cancelled first.
func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// --- health monitoring ----------------------------------------------------

// monitorNode is one node's heartbeat loop: probe /readyz every interval,
// fold the outcome into the health state machine, and trigger handoff when
// the node transitions into Unhealthy or Draining.
func (c *Coordinator) monitorNode(n *node) {
	defer c.wg.Done()
	tk := c.trc.nodeTrack(n.name)
	for c.ctx.Err() == nil {
		start := time.Now()
		ctx, cancel := context.WithTimeout(c.ctx, c.cfg.ProbeTimeout)
		b := n.client.readyz(ctx)
		cancel()
		tk.Span(c.trc.phProbe, start, time.Now(), int64(b.load))
		if b.err != nil {
			c.met.BeatMisses.Add(1)
			n.mu.Lock()
			missed := n.missed + 1
			n.mu.Unlock()
			tk.Instant(c.trc.phMiss, time.Now(), int64(missed))
		}
		st, changed := n.apply(b, &c.cfg)
		if changed {
			tk.Instant(c.trc.phState, time.Now(), int64(st))
			c.cfg.Log.Printf("node %s: %s", n.name, st)
			if st == StatusUnhealthy || st == StatusDraining {
				// The per-job watchers notice the status themselves; nothing
				// to push here. Dropping the warm pins stops fresh jobs from
				// preferring the dead node.
				c.dropPins(n.name)
			}
		}
		sleep(c.ctx, c.cfg.HeartbeatInterval)
	}
}

// dropPins forgets warm-key pins to a node that stopped being routable.
func (c *Coordinator) dropPins(name string) {
	c.mu.Lock()
	for k, v := range c.warm {
		if v == name {
			delete(c.warm, k)
		}
	}
	c.mu.Unlock()
}

// routableCount returns how many nodes can accept work right now.
func (c *Coordinator) routableCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, nd := range c.nodes {
		if nd.routable() {
			n++
		}
	}
	return n
}

// RetryAfterHint is the shed hint in whole seconds: roughly one full
// failure-detection window, after which a recovered or newly registered
// node would be routable.
func (c *Coordinator) RetryAfterHint() int {
	d := time.Duration(c.cfg.MissThreshold) * c.cfg.HeartbeatInterval
	sec := int((d + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// --- routing --------------------------------------------------------------

// route picks the node for key, skipping exclude: the warm pin if
// routable, else the first routable node in ring order — and for cold keys
// whose ring owner is already loaded, the least-loaded routable node
// instead (work stealing). It reports (nil, false) when no node is
// routable.
func (c *Coordinator) route(key string, exclude map[string]bool) (*node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if pin, ok := c.warm[key]; ok && !exclude[pin] {
		if n := c.nodes[pin]; n != nil && n.routable() {
			return n, true
		}
	}
	var owner *node
	for _, name := range c.ring.Order(key) {
		if exclude[name] {
			continue
		}
		if n := c.nodes[name]; n != nil && n.routable() {
			owner = n
			break
		}
	}
	if owner == nil {
		return nil, false
	}
	if _, warm := c.warm[key]; !warm && int(owner.inflight.Load()) >= stealThreshold {
		// Cold key on a busy owner: nothing is warm anywhere, so place it
		// wherever the queue is shortest.
		best := owner
		for name, n := range c.nodes {
			if exclude[name] || !n.routable() {
				continue
			}
			if n.inflight.Load() < best.inflight.Load() {
				best = n
			}
		}
		if best != owner {
			c.met.Steals.Add(1)
			owner = best
		}
	}
	return owner, true
}

// pin records that key's engine is now warm on node name.
func (c *Coordinator) pin(key, name string) {
	c.mu.Lock()
	c.warm[key] = name
	c.mu.Unlock()
}

// --- jobs -----------------------------------------------------------------

// cjob is one job tracked by the coordinator across placements — or, when
// coalescedWith is set, a coalesced waiter that never places at all: it
// mirrors its leader's terminal view when that run lands.
type cjob struct {
	ID   string
	Spec serve.JobSpec
	key  string
	done chan struct{}

	// ctx ends the pursuit of the job: cancelled with errCancelled when its
	// last interested party leaves (a waiter's: when the waiter itself is
	// cancelled), with errClosed when the coordinator closes.
	ctx    context.Context
	cancel context.CancelCauseFunc

	party         *flight.Party[JobView] // stake in the (possibly shared) run
	coalescedWith string                 // waiters: the leader's job ID

	mu        sync.Mutex
	node      string // current placement ("" while unplaced)
	view      serve.JobView
	ckptHash  string // the last pulled record's key in the coordinator's store
	ckptMesh  string // the adapted mesh that record names ("" none)
	ckptCycle int
	handoffs  int
}

// artifacts lists what j's next placement needs on its node: the mesh its
// run starts on — the one its latest record names, else the spec's — and
// that record.
func (j *cjob) artifacts() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	mesh := j.Spec.Mesh.Hash
	if j.ckptMesh != "" {
		mesh = j.ckptMesh
	}
	return slices.DeleteFunc([]string{mesh, j.ckptHash}, func(h string) bool { return h == "" })
}

// Done returns a channel closed when the job reaches a terminal state (or
// the coordinator gives up on it).
func (j *cjob) Done() <-chan struct{} { return j.done }

// JobView is the coordinator's view of a job: the owning node's view plus
// placement and handoff bookkeeping.
type JobView struct {
	serve.JobView
	Node            string `json:"node,omitempty"`
	Handoffs        int    `json:"handoffs"`
	CheckpointCycle int    `json:"checkpoint_cycle,omitempty"`
}

// View snapshots the job.
func (j *cjob) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{JobView: j.view, Node: j.node, Handoffs: j.handoffs, CheckpointCycle: j.ckptCycle}
	v.ID, v.Spec = j.ID, j.Spec
	if j.coalescedWith != "" {
		v.CoalescedWith = j.coalescedWith
	}
	if v.State == "" {
		v.State = serve.StateQueued
	}
	return v
}

// Submit validates and accepts a job, returning ErrNoHealthyNodes (shed)
// while the cluster is fully degraded. Placement, retries and handoffs run
// asynchronously; watch the job through Done and View. When an identical
// job is already in flight somewhere on the cluster the submission
// attaches to it instead of dispatching a duplicate run: the waiter is a
// full job — pollable, cancellable — that mirrors the leader's terminal
// view, which is bitwise identical to what its own run would have produced.
func (c *Coordinator) Submit(spec serve.JobSpec) (*cjob, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if c.routableCount() == 0 {
		c.met.Sheds.Add(1)
		c.trc.jobTrack("shed").Instant(c.trc.phShed, time.Now(), 0)
		return nil, ErrNoHealthyNodes
	}
	j := &cjob{ID: serve.NewJobID("c"), Spec: spec, key: spec.RouteKey(), done: make(chan struct{})}
	j.ctx, j.cancel = context.WithCancelCause(c.ctx)
	pursue := c.runJob
	c.mu.Lock()
	if c.ctx.Err() != nil {
		c.mu.Unlock()
		return nil, errClosed
	}
	var founded bool
	j.party, founded = c.flights.Join(spec.SpecHash(), j.ID, func() { j.cancel(errCancelled) })
	if !founded {
		j.coalescedWith, j.view.State, pursue = j.party.Leader(), serve.StateCoalesced, c.mirror
	}
	c.jobs[j.ID] = j
	c.wg.Add(1)
	c.mu.Unlock()
	c.met.Submitted.Add(1)
	if !founded {
		c.met.CoalesceAttach.Add(1)
		c.trc.jobTrack(j.ID).Instant(c.trc.phAttach, time.Now(), 0)
		c.cfg.Log.Printf("job %s: coalesced onto %s", j.ID, j.coalescedWith)
	}
	go pursue(j)
	return j, nil
}

// Job looks a job up by ID.
func (c *Coordinator) Job(id string) (*cjob, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// Cancel requests cooperative cancellation. Coalesced flights are
// party-counted: cancelling a waiter (or the original submitter) detaches
// only that caller; the run is cancelled — on its node, or before it ever
// reaches one — when the last interested party leaves.
func (c *Coordinator) Cancel(id string) (*cjob, error) {
	j, err := c.Job(id)
	if err != nil {
		return nil, err
	}
	if j.coalescedWith != "" {
		j.cancel(errCancelled) // the waiter's watcher settles it and leaves the flight
	} else {
		j.party.Leave()
	}
	return j, nil
}

func (c *Coordinator) nodeByName(name string) *node {
	if name == "" {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[name]
}

// ending is how the coordinator stopped pursuing a job: the terminal
// state (with the error text of a failure), or — for a waiter whose
// flight landed — the leader's view to copy. The zero ending abandons the
// job as it stands: the coordinator is closing, and whatever runs on a
// node keeps running unobserved.
type ending struct {
	state  serve.JobState
	errMsg string
	mirror *JobView
}

// stopped is the ending of a job whose context was cancelled.
func stopped(j *cjob) ending {
	if errors.Is(context.Cause(j.ctx), errCancelled) {
		return ending{state: serve.StateCancelled}
	}
	return ending{}
}

// settle is the coordinator's one terminal transition: view, counter,
// trace instant, log line, the flight, then the done channel. Landing the
// flight before done closes means late identical submissions start a
// fresh run instead of attaching to a finished one.
func (c *Coordinator) settle(j *cjob, e ending) {
	var counter *atomic.Int64
	phase := c.trc.phDone
	j.mu.Lock()
	switch m := e.mirror; {
	case m != nil:
		j.view, j.node, j.handoffs, j.ckptCycle = m.JobView, m.Node, m.Handoffs, m.CheckpointCycle
		counter, phase = &c.met.CoalesceFanout, c.trc.phFanout
	case e.state == serve.StateCompleted:
		counter = &c.met.Completed
	case e.state == serve.StateCancelled:
		counter = &c.met.Cancelled
	case e.state == serve.StateExpired:
		counter = &c.met.Expired
	case e.state != "":
		counter = &c.met.Failed
	}
	if e.state != "" {
		j.view.State, j.view.Error = e.state, e.errMsg
	}
	state, cycles, node := j.view.State, j.view.Cycles, j.node
	record, mesh := j.ckptHash, j.ckptMesh
	j.mu.Unlock()
	c.store.Unpin(record) // the job's latest record and its mesh are pinned while it lives
	c.store.Unpin(mesh)
	if counter != nil {
		counter.Add(1)
		c.trc.jobTrack(j.ID).Instant(phase, time.Now(), int64(cycles))
		c.cfg.Log.Printf("job %s: %s (node %q, %d cycles) %s", j.ID, state, node, cycles, e.errMsg)
	}
	if j.coalescedWith == "" {
		j.party.Land(j.View())
	} else {
		j.party.Leave()
	}
	j.cancel(nil)
	close(j.done)
}

// mirror is a coalesced waiter's watcher: copy the leader's terminal
// view when its run lands, or detach on the waiter's own cancellation.
func (c *Coordinator) mirror(j *cjob) {
	defer c.wg.Done()
	select {
	case <-j.party.Done():
		v := j.party.Value()
		c.settle(j, ending{mirror: &v})
	case <-j.ctx.Done():
		c.settle(j, stopped(j))
	}
}

// runJob drives one job across placements until it reaches a terminal
// state: place (with retries and stealing), watch (view + checkpoint
// polling), and on node death or drain loop back and hand off from the
// last pulled checkpoint.
func (c *Coordinator) runJob(j *cjob) {
	defer c.wg.Done()
	c.settle(j, c.pursue(j))
}

// pursue is runJob's loop; it returns how the job ended.
func (c *Coordinator) pursue(j *cjob) ending {
	parkDeadline := time.Now().Add(c.cfg.ParkTimeout)
	for {
		n, err := c.place(j)
		switch {
		case err == nil:
		case j.ctx.Err() != nil:
			// Stopped while unplaced — placement backoff, degraded-mode
			// parking or a handoff gap: nothing runs anywhere, so the job
			// ends here and now.
			return stopped(j)
		case !errors.Is(err, ErrNoHealthyNodes):
			return ending{state: serve.StateFailed, errMsg: err.Error()}
		case time.Now().After(parkDeadline):
			return ending{state: serve.StateFailed, errMsg: "no healthy node within park timeout"}
		default:
			// Degraded: every node is down or saturated. Park and retry
			// after a beat; fail only after ParkTimeout so a recovering
			// cluster picks orphans back up.
			sleep(j.ctx, c.cfg.HeartbeatInterval)
			continue
		}
		parkDeadline = time.Now().Add(c.cfg.ParkTimeout)
		e, handoff := c.watch(j, n)
		n.inflight.Add(-1)
		if !handoff {
			return e
		}
		j.mu.Lock()
		j.node = ""
		j.handoffs++
		cycle := j.ckptCycle
		j.mu.Unlock()
		c.met.Handoffs.Add(1)
		c.trc.jobTrack(j.ID).Instant(c.trc.phHandoff, time.Now(), int64(cycle))
		// Best-effort cancel on the old node in case it is merely
		// drained or partitioned, not dead — the job's identity moves
		// with the coordinator, and a zombie duplicate would only waste
		// the old node's cycles.
		if n.statusNow() != StatusUnhealthy {
			n.client.cancel(c.ctx, j.ID)
		}
		c.cfg.Log.Printf("job %s: handing off from %s at checkpoint cycle %d", j.ID, n.name, cycle)
	}
}

// place dispatches j to a routed node, retrying across the budget with
// jittered backoff and honoring Retry-After hints. Nodes that answer 429
// are excluded for the rest of the round, which is how a saturated ring
// owner's overflow spreads to its peers. The job's context is honoured
// between attempts; a dispatch already on the wire is never torn, so the
// coordinator always knows whether a node holds the job.
func (c *Coordinator) place(j *cjob) (*node, error) {
	exclude := make(map[string]bool)
	for attempt := 0; attempt < c.cfg.RetryBudget; attempt++ {
		if err := context.Cause(j.ctx); err != nil {
			return nil, err
		}
		n, ok := c.route(j.key, exclude)
		if !ok {
			return nil, ErrNoHealthyNodes
		}
		retry := func(after time.Duration) {
			c.met.Retries.Add(1)
			c.trc.jobTrack(j.ID).Instant(c.trc.phRetry, time.Now(), int64(attempt))
			sleep(j.ctx, c.bo.DelayAfter(attempt, after))
		}
		// Hash-aware placement: if the routed node would need the job's
		// artifacts pushed but a routable peer already holds them, place on
		// the holder instead — HEAD probes are cheap, blob pushes are not.
		if holder := c.artifactAffinity(j, n, exclude); holder != nil {
			n = holder
		}
		// Every artifact the job names — its mesh, and on a handoff its
		// record — must be on the node before the spec referencing them
		// lands there; a node they cannot reach is excluded for the round.
		if err := c.ensureArtifacts(n, j.artifacts()...); err != nil {
			c.cfg.Log.Printf("job %s: artifacts for %s: %v", j.ID, n.name, err)
			exclude[n.name] = true
			retry(0)
			continue
		}
		j.mu.Lock()
		sr := serve.SolveRequest{JobSpec: j.Spec, ID: j.ID, ResumeHash: j.ckptHash}
		j.mu.Unlock()
		view, code, after, err := n.client.submit(c.ctx, sr)
		if err == nil {
			c.adopt(j, n, view, attempt, "dispatched to")
			return n, nil
		}
		// Two failure shapes can still mean the node holds the job: a
		// transport error whose POST landed but whose response was lost,
		// and a duplicate-ID rejection from a node that flapped unhealthy
		// while the job kept running on it. Either way, if the node knows
		// the job, adopt that placement instead of failing — the job's
		// identity lives with the coordinator, not the placement attempt.
		if code == 0 || code == http.StatusBadRequest {
			if v, verr := n.client.view(c.ctx, j.ID); verr == nil && v.ID == j.ID {
				c.adopt(j, n, v, attempt, "adopted existing placement on")
				return n, nil
			}
		}
		switch {
		case code == http.StatusTooManyRequests, // full queue: steal to a peer this round
			code == http.StatusServiceUnavailable, // draining or refusing: go elsewhere
			code == http.StatusPreconditionFailed: // artifact vanished between push and submit
			exclude[n.name] = true
		case code >= 400 && code < 500:
			return nil, fmt.Errorf("cluster: node %s rejected job: %w", n.name, err)
		}
		retry(after)
	}
	// Budget exhausted without a placement: treat like full degradation so
	// the caller parks and retries rather than failing the job outright.
	return nil, ErrNoHealthyNodes
}

// adopt records that n holds j — a fresh dispatch or a placement found
// already there.
func (c *Coordinator) adopt(j *cjob, n *node, v serve.JobView, attempt int, how string) {
	n.inflight.Add(1)
	c.pin(j.key, n.name)
	j.mu.Lock()
	j.node, j.view = n.name, v
	j.mu.Unlock()
	c.met.Dispatches.Add(1)
	c.trc.jobTrack(j.ID).Instant(c.trc.phDispatch, time.Now(), int64(attempt))
	c.cfg.Log.Printf("job %s: %s %s (attempt %d)", j.ID, how, n.name, attempt)
}

// watch polls the job's view and checkpoint on its node until the job
// reaches a terminal state there — returning how it ended — or the node
// stops being a sane host for it, in which case handoff is set.
func (c *Coordinator) watch(j *cjob, n *node) (e ending, handoff bool) {
	misses := 0
	ctx := j.ctx
	for {
		sleep(ctx, c.cfg.FetchInterval)
		if c.ctx.Err() != nil {
			return ending{}, false
		}
		if ctx.Err() != nil {
			// The last interested party left: cancel the run on its node,
			// once, and from here on wait — under the coordinator's own
			// context — for the node to report it stopped.
			n.client.cancel(c.ctx, j.ID)
			ctx = c.ctx
		}
		if st := n.statusNow(); st == StatusUnhealthy || st == StatusDraining {
			return ending{}, true
		}
		v, err := n.client.view(c.ctx, j.ID)
		if err != nil {
			// The health monitor owns death detection, but a node that
			// answers probes while losing job state (restarted without its
			// state dir, say) must also trigger a handoff eventually.
			misses++
			if misses > c.cfg.MissThreshold {
				return ending{}, true
			}
			continue
		}
		misses = 0
		j.mu.Lock()
		j.view = v
		j.mu.Unlock()
		switch v.State {
		case serve.StateCompleted, serve.StateFailed, serve.StateCancelled, serve.StateExpired:
			return ending{state: v.State, errMsg: v.Error}, false
		case serve.StateDrained:
			// The node checkpointed the job during its own graceful drain;
			// grab that final checkpoint if the process is still up, then
			// hand off.
			c.pullCheckpoint(j, n)
			return ending{}, true
		case serve.StateRunning:
			c.pullCheckpoint(j, n)
		}
	}
}

// pullCheckpoint fetches the job's latest resume record from its node and,
// if it parses (CRC-valid) and is newer than what we hold, makes it the
// job's latest: stored and pinned in the coordinator's store with the
// adapted mesh it names — proxied from the node when the coordinator lacks
// it — so a handoff can move both by hash whatever becomes of the node.
// The previous record's pins are released.
func (c *Coordinator) pullCheckpoint(j *cjob, n *node) {
	raw, err := n.client.checkpoint(c.ctx, j.ID)
	if err != nil || len(raw) == 0 {
		return
	}
	ck, err := meshio.DecodeCheckpoint(raw)
	if err != nil {
		return // torn or corrupt record: keep the previous one
	}
	j.mu.Lock()
	stale := ck.Cycle <= j.ckptCycle
	j.mu.Unlock()
	if stale || !c.keep(ck.Mesh) {
		return
	}
	hash, err := c.store.Put(raw)
	if err != nil || c.store.Pin(hash) != nil {
		c.store.Unpin(ck.Mesh)
		return
	}
	j.mu.Lock()
	oldHash, oldMesh := j.ckptHash, j.ckptMesh
	j.ckptHash, j.ckptMesh, j.ckptCycle = hash, ck.Mesh, ck.Cycle
	j.mu.Unlock()
	c.store.Unpin(oldHash)
	c.store.Unpin(oldMesh)
	c.met.CkptPulls.Add(1)
	c.trc.jobTrack(j.ID).Instant(c.trc.phCkpt, time.Now(), int64(ck.Cycle))
}
