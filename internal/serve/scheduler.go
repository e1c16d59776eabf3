package serve

import (
	"container/heap"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"eul3d/internal/adapt"
	"eul3d/internal/flight"
	"eul3d/internal/meshio"
	"eul3d/internal/scenario"
	"eul3d/internal/store"
	"eul3d/internal/trace"
)

// Admission and lifecycle errors surfaced to the HTTP layer.
var (
	ErrQueueFull  = errors.New("serve: queue full")
	ErrDraining   = errors.New("serve: draining, not accepting jobs")
	ErrNotFound   = errors.New("serve: no such job")
	ErrNoArtifact = errors.New("serve: mesh artifact not in store (upload it first)")
	errClientStop = errors.New("serve: cancelled by client")
	errDrainStop  = errors.New("serve: drained")
)

// JobState is the lifecycle phase of a job.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateCompleted JobState = "completed"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
	StateExpired   JobState = "expired"
	StateDrained   JobState = "drained"   // checkpointed by a graceful drain; resumes on restart
	StateCoalesced JobState = "coalesced" // attached as a waiter to an identical in-flight job
)

// terminal is a job's outcome: live while the job runs, final once its
// done channel closes, and exactly what a coalesced waiter copies from
// its leader when the shared flight lands.
type terminal struct {
	state       JobState
	errMsg      string
	history     []float64
	converged   bool                  // the run's convergence summary; the registry keeps no
	orders      float64               // *solver.Result, whose FineSolution aliases engine state
	resultHash  string                // store key of the encoded result solution
	diag        *scenario.Diagnostics // scenario jobs: post-run diagnostics
	adaptEpochs []adapt.EpochStat     // adaptive jobs: per-epoch record after the run
	key         EngineKey
	keySet      bool
}

// Job is one tracked solve request.
type Job struct {
	ID   string
	Spec JobSpec

	mu       sync.Mutex
	terminal      // guarded by mu
	built    bool // this job performed the engine construction (cache miss)
	enqueued time.Time
	deadline time.Time // zero when the job has no deadline

	seq    int64 // admission order, FIFO tiebreak within a priority
	cancel context.CancelCauseFunc
	ctx    context.Context
	done   chan struct{}      // closed when the job leaves the queue/runner for good
	resume *meshio.Checkpoint // where the run picks up (nil: from the spec's initial state)

	party         *flight.Party[terminal] // the job's stake in its (possibly shared) run
	coalescedWith string                  // waiters: the leader's job ID
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobView is the externally visible snapshot of a job.
type JobView struct {
	ID          string    `json:"id"`
	State       JobState  `json:"state"`
	Spec        JobSpec   `json:"spec"`
	Cycles      int       `json:"cycles"`
	History     []float64 `json:"history,omitempty"`
	InitialNorm float64   `json:"initial_norm,omitempty"`
	FinalNorm   float64   `json:"final_norm,omitempty"`
	Orders      float64   `json:"orders,omitempty"`
	Converged   bool      `json:"converged,omitempty"`
	Error       string    `json:"error,omitempty"`
	Engine      string    `json:"engine_key,omitempty"`
	CacheHit    *bool     `json:"cache_hit,omitempty"`

	// ResultHash is the artifact-store key of the completed result's
	// encoded solution — the job's ETag, and a handle any peer can GET
	// the full field from.
	ResultHash string `json:"result_hash,omitempty"`

	// CoalescedWith names the leader this job attached to as a waiter
	// (set while coalesced and preserved in the mirrored terminal view).
	CoalescedWith string `json:"coalesced_with,omitempty"`

	// Diagnostics is present on completed scenario jobs: the preset's
	// physics record (L1 error vs the analytic reference, field ranges).
	Diagnostics *scenario.Diagnostics `json:"diagnostics,omitempty"`

	// AdaptEpochs is present on finished adaptive jobs: one record per
	// adaptation epoch (cells refined, colors reused, rebuild time).
	AdaptEpochs []adapt.EpochStat `json:"adapt_epochs,omitempty"`
}

// View snapshots the job.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:            j.ID,
		State:         j.state,
		Spec:          j.Spec,
		Cycles:        len(j.history),
		History:       append([]float64(nil), j.history...),
		Error:         j.errMsg,
		ResultHash:    j.resultHash,
		CoalescedWith: j.coalescedWith,
	}
	if j.keySet {
		v.Engine = j.key.String()
		hit := !j.built
		v.CacheHit = &hit
	}
	if n := len(j.history); n > 0 {
		v.InitialNorm = j.history[0]
		v.FinalNorm = j.history[n-1]
	}
	v.Converged, v.Orders = j.converged, j.orders
	v.Diagnostics = j.diag
	v.AdaptEpochs = append([]adapt.EpochStat(nil), j.adaptEpochs...)
	return v
}

// State returns the job's current lifecycle phase.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// jobQueue is a max-heap on (priority, admission order).
type jobQueue []*Job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(a, b int) bool {
	if q[a].Spec.Priority != q[b].Spec.Priority {
		return q[a].Spec.Priority > q[b].Spec.Priority
	}
	return q[a].seq < q[b].seq
}
func (q jobQueue) Swap(a, b int) { q[a], q[b] = q[b], q[a] }
func (q *jobQueue) Push(x any)   { *q = append(*q, x.(*Job)) }
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return x
}

// Config sizes a Scheduler.
type Config struct {
	QueueCap     int    // pending jobs admitted before 429s (default 16)
	Runners      int    // jobs solving concurrently (default 2)
	WorkerBudget int    // total pooled workers across concurrent jobs (default 8)
	CacheCap     int    // idle engines kept warm (default 4)
	StateDir     string // interrupted jobs' resume records + sidecars ("" disables)
	Log          *log.Logger

	// CheckpointEvery, when positive (and StateDir is set), checkpoints
	// every running job each CheckpointEvery cycles, and persists a restart
	// sidecar the moment the job starts running. The node then survives
	// SIGKILL — a restart resumes from the last periodic checkpoint — and a
	// cluster coordinator can pull the live checkpoint over
	// GET /v1/jobs/{id}/checkpoint and hand the job to another node.
	CheckpointEvery int

	// Trace, when set, records every job's lifecycle (queued, governor
	// wait, engine acquire, run, terminal instant) on a per-job track of
	// the flight recorder, exposed over GET /debug/trace. Nil disables
	// service-layer tracing entirely.
	Trace *trace.Tracer

	// Store is the content-addressed artifact store backing hash-named
	// meshes, resume-by-hash records, the meshes adaptive runs refine and
	// result artifacts. Nil gets a default store: with a StateDir, its disk
	// tier is StateDir/artifacts, so the meshes interrupted adaptive jobs'
	// records name survive a restart; without one, memory only.
	Store *store.Store
}

func (c *Config) fill() {
	if c.QueueCap <= 0 {
		c.QueueCap = 16
	}
	if c.Runners <= 0 {
		c.Runners = 2
	}
	if c.WorkerBudget <= 0 {
		c.WorkerBudget = 8
	}
	if c.CacheCap <= 0 {
		c.CacheCap = 4
	}
	if c.Log == nil {
		c.Log = log.New(io.Discard, "", 0)
	}
	if c.Store == nil && c.StateDir != "" {
		st, err := store.New(store.Config{Dir: filepath.Join(c.StateDir, "artifacts")})
		if err != nil {
			c.Log.Printf("artifact store under the state dir: %v (keeping artifacts in memory)", err)
		}
		c.Store = st
	}
	if c.Store == nil {
		c.Store = store.NewMemory()
	}
}

// Scheduler multiplexes solve jobs over cached engines: bounded admission,
// priority dispatch, deadlines, cooperative cancellation, and graceful
// drain with checkpoint/resume.
type Scheduler struct {
	cfg   Config
	cache *Cache
	gov   *Governor
	met   *Metrics
	trc   schedTrace

	mu       sync.Mutex
	cond     *sync.Cond
	queue    jobQueue
	jobs     map[string]*Job
	flights  flight.Group[terminal] // keyed by SpecHash, or by job ID for runs that must not be shared
	seq      int64
	draining bool
	stopped  bool
	running  int

	wg sync.WaitGroup
}

// NewScheduler builds a scheduler and starts its runner goroutines.
func NewScheduler(cfg Config) *Scheduler {
	cfg.fill()
	met := &Metrics{}
	s := &Scheduler{
		cfg:   cfg,
		met:   met,
		trc:   newSchedTrace(cfg.Trace),
		cache: NewCache(cfg.CacheCap, met),
		gov:   NewGovernor(cfg.WorkerBudget),
		jobs:  make(map[string]*Job),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Runners; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	return s
}

// Metrics returns the scheduler's counter block.
func (s *Scheduler) Metrics() *Metrics { return s.met }

// Governor returns the worker-budget governor (for gauges).
func (s *Scheduler) Governor() *Governor { return s.gov }

// Cache returns the engine cache (for gauges and per-engine stats).
func (s *Scheduler) Cache() *Cache { return s.cache }

// Store returns the artifact store.
func (s *Scheduler) Store() *store.Store { return s.cfg.Store }

// Tracer returns the flight recorder the scheduler writes to (nil when
// tracing is disabled).
func (s *Scheduler) Tracer() *trace.Tracer { return s.cfg.Trace }

// QueueDepth returns the number of jobs waiting for a runner.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Running returns the number of jobs currently on a runner.
func (s *Scheduler) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// Draining reports whether a graceful drain has begun.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// QueueCap returns the admission queue capacity.
func (s *Scheduler) QueueCap() int { return s.cfg.QueueCap }

// Saturated reports whether the admission queue is full — the next Submit
// would be rejected with ErrQueueFull. /readyz turns this into a 503 so a
// cluster coordinator routes around the node before piling more work on.
func (s *Scheduler) Saturated() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue) >= s.cfg.QueueCap
}

// RetryAfterHint estimates, in whole seconds, how long a rejected client
// should wait before retrying. While draining the hint is a flat 10s (this
// process is going away; the retry must land elsewhere or after restart).
// When the queue is full the hint scales with the backlog: mean observed
// run time times the jobs ahead, divided across the runners.
func (s *Scheduler) RetryAfterHint() int {
	if s.Draining() {
		return 10
	}
	mean := 500 * time.Millisecond
	if n := s.met.RunTime.Count(); n > 0 {
		mean = s.met.RunTime.Sum() / time.Duration(n)
	}
	est := mean * time.Duration(s.QueueDepth()+1) / time.Duration(s.cfg.Runners)
	sec := int((est + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// CheckpointFile returns the path of the job's latest on-disk checkpoint,
// or "" when none exists (checkpointing disabled, or no cycle boundary
// reached yet). The file is written atomically, so a concurrent reader
// always sees a complete, CRC-valid snapshot.
func (s *Scheduler) CheckpointFile(id string) string {
	if s.cfg.StateDir == "" {
		return ""
	}
	p := s.statePath(id + ".ckpt")
	if _, err := os.Stat(p); err != nil {
		return ""
	}
	return p
}

// NewJobID draws a random job ID behind a one-letter tier prefix ("j" for
// a node's own jobs, "c" for a coordinator's).
func NewJobID(prefix string) string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return prefix + hex.EncodeToString(b[:])
}

// Submit validates and admits a job. It returns ErrQueueFull when the
// bounded queue is at capacity (the HTTP layer maps that to 429),
// ErrDraining once a graceful drain has begun (503), and ErrNoArtifact
// for a hash-named mesh the store does not hold (412). A submission
// whose SpecHash matches a live job attaches to it as a waiter instead
// of occupying queue or runner capacity; the returned Job then mirrors
// the leader's result when it lands.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	return s.submit(&Job{ID: NewJobID("j"), Spec: spec}, true)
}

// SubmitResume admits a job under a caller-chosen ID, optionally
// warm-started from a resume record. It is the handoff entry point: a
// cluster coordinator re-dispatches an interrupted job to this node under
// its original ID, resuming from the last record it pulled off the dying
// node. An empty id falls back to a generated one; a nil ck starts from
// scratch. Handoff jobs carry a pinned identity (and possibly mid-run
// state); they neither attach to another run nor accept waiters.
func (s *Scheduler) SubmitResume(id string, spec JobSpec, ck *meshio.Checkpoint) (*Job, error) {
	if id == "" {
		id = NewJobID("j")
	}
	if ck != nil && ck.Mesh != "" && spec.Adapt == nil {
		return nil, errors.New("serve: the resume record names an adapted mesh, but the job is not adaptive")
	}
	return s.submit(&Job{ID: id, Spec: spec, resume: ck}, false)
}

// submit is the one admission check in front of admit; share says
// whether identical live submissions may coalesce with this one.
func (s *Scheduler) submit(j *Job, share bool) (*Job, error) {
	if err := j.Spec.Validate(); err != nil {
		return nil, err
	}
	if nw := j.Spec.pooledWorkers(); nw > s.gov.Cap() {
		return nil, fmt.Errorf("serve: job wants %d workers, budget is %d", nw, s.gov.Cap())
	}
	if h := j.meshHash(); h != "" && !s.cfg.Store.Has(h) {
		return nil, fmt.Errorf("%w: %s", ErrNoArtifact, h)
	}
	if share {
		return s.admit(j, j.Spec.SpecHash())
	}
	return s.admit(j, ownFlight(j.ID))
}

// ownFlight is the flight key of a run only the named job may found: no
// SpecHash (bare hex) can collide with it, so nothing coalesces onto it
// by accident — Recover re-attaches a drained leader's waiters by it.
func ownFlight(id string) string { return "job/" + id }

// admit joins a prepared job (fresh or recovered) to the flight under
// key: founding it enqueues the job as the flight's leader; finding it
// live attaches the job as a waiter instead.
func (s *Scheduler) admit(j *Job, key string) (*Job, error) {
	j.enqueued = time.Now()
	if j.Spec.DeadlineMS > 0 {
		j.deadline = j.enqueued.Add(time.Duration(j.Spec.DeadlineMS) * time.Millisecond)
	}
	j.done = make(chan struct{})
	j.ctx, j.cancel = context.WithCancelCause(context.Background())

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.stopped {
		return nil, ErrDraining
	}
	old := s.jobs[j.ID]
	if old != nil {
		// A finished (or drained) record under the same ID is superseded:
		// a coordinator re-dispatching a job it previously drained off this
		// node must be able to reuse the job's pinned identity. Only a live
		// duplicate — still queued or running — is a real conflict.
		select {
		case <-old.done:
		default:
			return nil, fmt.Errorf("serve: job id %q already in use", j.ID)
		}
	}
	var founded bool
	j.party, founded = s.flights.Join(key, j.ID, func() { j.cancel(errClientStop) })
	if !founded {
		// Attaching bypasses the queue bound on purpose: a thundering
		// herd of identical requests costs one slot however large.
		s.attachLocked(j)
		return j, nil
	}
	if len(s.queue) >= s.cfg.QueueCap {
		j.party.Leave()
		s.met.Rejected.Add(1)
		return nil, ErrQueueFull
	}
	if old != nil {
		s.removeStateFiles(old.ID)
	}
	j.state = StateQueued
	s.seq++
	j.seq = s.seq
	heap.Push(&s.queue, j)
	s.jobs[j.ID] = j
	s.met.Submitted.Add(1)
	s.cond.Signal()
	return j, nil
}

// Job looks a job up by ID.
func (s *Scheduler) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// Cancel requests cooperative cancellation of a queued or running job.
// On a coalesced flight, party counting applies: cancelling one caller
// — waiter or leader — detaches only that caller, and the underlying
// run is cancelled when its last interested party leaves.
func (s *Scheduler) Cancel(id string) (*Job, error) {
	j, err := s.Job(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	party := j.party
	j.mu.Unlock()
	switch {
	case party == nil: // already settled
	case j.coalescedWith != "":
		j.cancel(errClientStop) // the waiter's watcher settles it and leaves the flight
	default:
		party.Leave() // the run survives while waiters remain attached
	}
	return j, nil
}

// bounded returns the job's context cut off at its deadline, if it has one.
func (j *Job) bounded() (context.Context, context.CancelFunc) {
	if j.deadline.IsZero() {
		return j.ctx, func() {}
	}
	return context.WithDeadline(j.ctx, j.deadline)
}

// runner is one dispatch loop: pop the highest-priority job, run it.
func (s *Scheduler) runner() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.stopped {
			s.cond.Wait()
		}
		if len(s.queue) == 0 && s.stopped {
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.queue).(*Job)
		s.running++
		s.mu.Unlock()

		s.dispatch(j)

		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}
}

// dispatch takes one popped job to settle: at once if it was cancelled or
// expired while still queued, otherwise through run.
func (s *Scheduler) dispatch(j *Job) {
	popped := time.Now()
	s.met.QueueWait.Observe(popped.Sub(j.enqueued))
	tk := s.trc.jobTrack(j.ID)
	tk.Span(s.trc.phQueued, j.enqueued, popped, int64(j.Spec.Priority))

	ctx, stop := j.bounded()
	defer stop()
	if err := context.Cause(ctx); err != nil {
		s.settle(j, ending{cause: err})
		return
	}
	j.mu.Lock()
	j.state = StateRunning
	if j.resume != nil {
		// The visible history is seeded with the pre-interruption cycles,
		// which Progress only reports from the resume point on.
		j.history = append(j.history[:0], j.resume.History...)
	}
	j.mu.Unlock()
	s.run(ctx, j, tk)
}

// shutdown stops the scheduler for good: admission closes, still-queued
// jobs are settled with cause on the spot, every run a runner holds —
// including jobs popped but not yet marked running, whose dispatch
// preamble sees the cause — is cancelled with it, and shutdown returns
// when every runner has parked. Waiters are not cancelled: they follow
// their flights, whose leaders all settle here or on a runner.
func (s *Scheduler) shutdown(cause error) {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining, s.stopped = true, true
	queued := s.queue
	s.queue = nil
	var leaders []*Job
	for _, j := range s.jobs {
		if j.coalescedWith == "" {
			leaders = append(leaders, j)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	for _, j := range queued {
		s.settle(j, ending{cause: cause})
	}
	for _, j := range leaders {
		j.cancel(cause) // a no-op on jobs already settled
	}
	s.wg.Wait()
	s.cache.Close()
}

// Drain gracefully shuts the scheduler down: queued jobs are persisted as
// restart sidecars, running jobs are cancelled cooperatively and
// checkpointed. After Drain the scheduler is stopped for good.
func (s *Scheduler) Drain() { s.shutdown(errDrainStop) }

// Stop aborts without persisting: running jobs are cancelled as if by the
// client and queued jobs are discarded. For tests.
func (s *Scheduler) Stop() { s.shutdown(errClientStop) }
