package serve

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"strconv"
	"time"

	"eul3d/internal/mesh"
	"eul3d/internal/meshio"
	"eul3d/internal/solver"
	"eul3d/internal/trace"
)

// ran is what one execution of a job produced.
type ran struct {
	res  *solver.Result
	mesh *mesh.Mesh         // the mesh res.FineSolution lives on
	snap *meshio.Checkpoint // interrupted runs: where a restart picks up (nil: from scratch)
}

// executor is the one fork in the run path — how a prepared job
// executes: on a leased cached engine (leaseEngine, which sets engine) or
// through the adaptive driver (adaptDriver).
type executor struct {
	exec   func(ctx context.Context) (ran, error)
	engine *Engine
}

// leases are what a prepared run holds until it is settled.
type leases struct {
	pinned string  // mesh artifact pinned in the store ("" none)
	budget bool    // the job's workers are charged to the governor
	engine *Engine // cached engine leased (nil none)
}

// release gives back what l holds, in reverse order of acquisition.
func (s *Scheduler) release(j *Job, l leases) {
	if l.engine != nil {
		s.cache.Release(l.engine)
	}
	if l.budget {
		s.gov.Release(j.Spec.Workers)
	}
	if l.pinned != "" {
		s.cfg.Store.Unpin(l.pinned)
	}
}

// causeOr prefers the context's cancellation cause over the error a
// cancelled wait returned, so a client cancel or a drain that lands while
// the job is blocked settles as what it was.
func causeOr(ctx context.Context, err error) error {
	if cause := context.Cause(ctx); cause != nil {
		return cause
	}
	return err
}

// run takes a dispatched job from its mesh to settle — the only run path:
// prepare (pin and resolve the mesh, wait for the worker budget, ready
// the executor), run under pprof labels, record timing, then classify the
// outcome as cancelled, drained, diverged or complete (diagnosing
// scenario jobs). What prepare acquired is handed to settle, which lets
// go of it only after it has read the result.
func (s *Scheduler) run(ctx context.Context, j *Job, tk *trace.Track) {
	x, held, err := s.prepare(ctx, j, tk)
	if err != nil {
		s.settle(j, ending{cause: err})
		return
	}
	// The solver goroutine carries pprof labels, so CPU and goroutine
	// profiles taken through the debug endpoints attribute samples to the
	// job and engine they served.
	runStart := time.Now()
	var out ran
	pprof.Do(ctx, pprof.Labels(
		"job", j.ID, "workers", strconv.Itoa(j.Spec.Workers), "levels", strconv.Itoa(j.Spec.Levels),
		"adapt", strconv.FormatBool(j.Spec.Adapt != nil),
	), func(ctx context.Context) {
		out, err = x.exec(ctx)
	})
	runEnd := time.Now()
	s.met.RunTime.Observe(runEnd.Sub(runStart))
	res := out.res
	var cycles int64
	if res != nil {
		cycles = int64(res.Cycles)
	}
	tk.Span(s.trc.phRun, runStart, runEnd, cycles)

	e := ending{res: res, cause: err, held: held}
	if err == nil {
		if res.Cancelled {
			e.cause, e.snap = context.Cause(ctx), out.snap
		} else if i, v, diverged := divergedAt(res.History); diverged {
			e.cause = fmt.Errorf("diverged: residual %g at cycle %d", v, i)
		} else if sc := j.Spec.scenario(); sc != nil {
			// Diagnose on the mesh the solution lives on — for an adaptive
			// run the final adapted mesh, not the spec's starting one.
			d := sc.Diagnose(out.mesh, res.FineSolution, res.FinalNorm)
			j.mu.Lock()
			j.diag = &d
			j.mu.Unlock()
		}
	}
	s.settle(j, e)
}

// prepare readies a dispatched job to execute: pin the mesh artifact,
// resolve the meshes, acquire the worker budget (before the engine lease,
// released after it; the fixed order prevents deadlock), then the
// executor itself. On success it returns what it acquired; on failure
// that has already been given back.
func (s *Scheduler) prepare(ctx context.Context, j *Job, tk *trace.Track) (x executor, held leases, err error) {
	defer func() {
		if err != nil {
			s.release(j, held)
			held = leases{}
		}
	}()

	h := j.meshHash()
	if h != "" {
		// Pin the mesh artifact while the job runs: eviction pressure
		// must not drop the bytes an in-flight solve references.
		if err := s.cfg.Store.Pin(h); err != nil {
			return x, held, fmt.Errorf("%w: %s", ErrNoArtifact, h)
		}
		held.pinned = h
	}
	r, err := s.resolve(j, h)
	if err != nil {
		return x, held, err
	}

	nw := j.Spec.Workers
	govStart := time.Now()
	if err := s.gov.Acquire(ctx, nw); err != nil {
		return x, held, causeOr(ctx, err)
	}
	held.budget = true
	tk.Span(s.trc.phGovWait, govStart, time.Now(), int64(nw))

	if j.Spec.Adapt != nil {
		x = s.adaptDriver(j, r.ms)
	} else if x, err = s.leaseEngine(ctx, j, r, tk); err != nil {
		return x, held, causeOr(ctx, err)
	}
	held.engine = x.engine
	return x, held, nil
}

// resolved is what prepare found a job runs on before any lease: its
// meshes, or — when its mesh source names a cached engine — that engine's
// key alone, the engine holding the meshes.
type resolved struct {
	ms    []*mesh.Mesh // nil on a hit
	src   meshSource
	named bool      // src names the meshes (not a Path mesh)
	key   EngineKey // the engine src names
	hit   bool
}

// resolve looks a plain job's mesh source up in the cache's aliases; on a
// hit it builds no mesh. Anything else — a miss, a Path mesh, an adaptive
// job — builds the meshes here.
func (s *Scheduler) resolve(j *Job, hash string) (r resolved, err error) {
	if j.Spec.Adapt == nil {
		if r.src, r.named = j.Spec.source(hash); r.named {
			if r.key, r.hit = s.cache.lookup(r.src); r.hit {
				return r, nil
			}
		}
	}
	r.ms, err = s.buildMeshes(j, hash)
	return r, err
}

// buildMeshes generates, decodes or loads the job's meshes, counting each
// time a request has to: the work a hit by mesh source saves.
func (s *Scheduler) buildMeshes(j *Job, hash string) ([]*mesh.Mesh, error) {
	ms, err := j.Spec.BuildMeshesFrom(s.cfg.Store, hash)
	if err == nil {
		s.met.MeshBuilds.Add(1)
	}
	return ms, err
}

// divergedAt scans a residual history for NaN/Inf.
func divergedAt(hist []float64) (int, float64, bool) {
	for i, v := range hist {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return i, v, true
		}
	}
	return 0, 0, false
}

// meshHash is the mesh artifact the job's run starts on: the adapted mesh
// its resume record names, else the spec's uploaded mesh ("" for a
// generated or file mesh).
func (j *Job) meshHash() string {
	if j.resume != nil && j.resume.Mesh != "" {
		return j.resume.Mesh
	}
	return j.Spec.Mesh.Hash
}

// progress is the per-cycle callback that grows the job's visible history.
func (j *Job) progress(_ int, norm float64) {
	j.mu.Lock()
	j.history = append(j.history, norm)
	j.mu.Unlock()
}

// leaseEngine prepares a plain job: lease its engine from the cache
// (building it on a miss), reset it, and load the job's starting state.
// The job runs on the engine's own meshes. An engine is leased to exactly
// one job at a time, which is what keeps results bitwise deterministic.
func (s *Scheduler) leaseEngine(ctx context.Context, j *Job, r resolved, tk *trace.Track) (executor, error) {
	key := r.key
	if !r.hit {
		key = j.Spec.Key(r.ms)
	}
	j.mu.Lock()
	j.key, j.keySet = key, true
	j.mu.Unlock()

	acqStart := time.Now()
	eng, err := s.cache.Acquire(ctx, key, func() (*solver.Steady, []*mesh.Mesh, error) {
		j.mu.Lock()
		j.built = true
		j.mu.Unlock()
		ms := r.ms
		if ms == nil { // the engine the alias named has been evicted since
			var err error
			if ms, err = s.buildMeshes(j, j.meshHash()); err != nil {
				return nil, nil, err
			}
		}
		st, err := solver.Open(ms, j.Spec.Params(), j.Spec.config())
		return st, ms, err
	})
	if err != nil {
		return executor{}, err
	}
	acqEnd := time.Now()
	tk.Span(s.trc.phAcquire, acqStart, acqEnd, 0)
	hitOrMiss := s.trc.phHit
	if j.built { // written only by this goroutine, in the build above
		hitOrMiss = s.trc.phMiss
	}
	tk.Instant(hitOrMiss, acqEnd, 0)
	if r.named && (!r.hit || j.built) {
		s.cache.alias(r.src, eng)
	}

	fine := eng.ms[0]
	st := eng.Steady()
	st.Reset()
	if j.resume != nil {
		err = st.Restore(j.resume)
	} else if sc := j.Spec.scenario(); sc != nil {
		// Scenario jobs start from the preset's initial state, not the
		// freestream Reset left behind. A resumed job skips this: the
		// checkpoint already holds the evolved state.
		err = st.SetInitial(sc.InitialState(fine))
	}
	if err != nil {
		s.cache.Release(eng)
		return executor{}, fmt.Errorf("loading the starting state: %w", err)
	}
	opts := s.runOptions(j)
	return executor{
		exec: func(ctx context.Context) (ran, error) {
			opts.Context = ctx
			res, err := st.Run(opts)
			if err != nil {
				return ran{}, err
			}
			out := ran{res: res, mesh: fine}
			if res.Cancelled && res.Cycles > 0 {
				out.snap = opts.Meta.Checkpoint(res.History, res.FineSolution)
			}
			return out, nil
		},
		engine: eng,
	}, nil
}
