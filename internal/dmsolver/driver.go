package dmsolver

import (
	"runtime"
	"sync"

	"eul3d/internal/forkjoin"
	"eul3d/internal/parti"
	"eul3d/internal/simnet"
)

// The executor of the program in ops.go. It maps the P simulated processors
// onto W workers of a persistent pool (internal/forkjoin), worker k running
// the program for the contiguous block [k·P/W, (k+1)·P/W), and owns what
// that decides — which processors' compute phases run on a worker, and the
// discipline under which an exchange or a reduction completes (and how it
// fails) — and nothing of the cycle: the exchange plan is the program's.
//
// Every exchange is bulk-synchronous: the block's send halves, a barrier,
// the block's receive halves, a barrier — all sends are posted before any
// receive matches, the discipline of the NX message layer. At W = 1 that is
// the whole-schedule collective, all sends then all receives, on the
// calling goroutine; at W = P it is the Delta's node program, one worker a
// processor. The answers are the same bit for bit at every W: a processor's
// phases and messages do not depend on which worker runs them.

// driver is what the program sees of the worker running it: the block of
// processors it runs and the two collective operations. The block is its
// one implementation; it is an interface so that a test can stand between
// two phases by wrapping a worker's exchanges.
type driver interface {
	// procs returns the processors [lo, hi) whose compute phases this
	// worker runs (see each). It is a range and sum takes a slice, not
	// closures, because a closure passed through the interface escapes: one
	// heap allocation per phase where the program now makes none.
	procs() (lo, hi int)
	// exchange executes schedule sch in direction dir on the arrays a of
	// level lev — one message per neighbour carrying all of them — and
	// returns once the data this worker's processors receive has landed,
	// or with the run's error, on every worker alike.
	exchange(dir parti.Dir, sch *parti.Schedule, lev *Level, a parti.Arrays) error
	// sum returns part[0] + part[1] + ... in processor order once every
	// processor's entry is written; part may be rewritten after it returns.
	sum(part []float64) (float64, error)
}

// count tallies one execution of an exchange in direction dir. An exchange
// has no other class: whatever it carries, a state array leads it (see
// CommCounters).
func (s *Solver) count(dir parti.Dir) {
	if dir == parti.Gather {
		s.Comm.GatherState++
	} else {
		s.Comm.ScatterState++
	}
}

func total(part []float64) float64 {
	sum := 0.0
	for _, v := range part {
		sum += v
	}
	return sum
}

// executor runs one program on W workers. Everything a run touches — the
// blocks, the barrier, the per-worker norms, the pool and the bound
// functions — is built once, so a run allocates nothing.
type executor struct {
	s       *Solver
	prog    func(x driver) (float64, error) // run on every block
	blocks  []block
	norms   []float64
	pool    *forkjoin.Pool
	bar     *simnet.Barrier
	healthy func() bool // the barrier's verdict, bound once
	work    func(k int) // runBlock, bound once

	mu  sync.Mutex
	err error // the run's first error
}

// block is worker k's driver: the processors [lo, hi) and the timeline
// they are traced on (nil without a tracer).
type block struct {
	*executor
	lo, hi int
	tl     *timeline
}

// newExecutor maps s's processors onto w workers running prog. The pool's
// workers reference only the pool (its fn slot is cleared between forks),
// so the executor does not keep s alive; the pool is shut down when s is
// collected.
func newExecutor(s *Solver, w int, prog func(x driver) (float64, error)) *executor {
	x := &executor{s: s, prog: prog, blocks: make([]block, w), norms: make([]float64, w),
		pool: forkjoin.New(w), bar: simnet.NewBarrier(w)}
	x.healthy = func() bool { return x.firstErr() == nil }
	x.work = x.runBlock
	for k := range x.blocks {
		x.blocks[k] = block{executor: x, lo: k * s.NProc / w, hi: (k + 1) * s.NProc / w}
	}
	s.st.attach(x)
	runtime.AddCleanup(s, (*forkjoin.Pool).Shutdown, x.pool)
	return x
}

// executor returns s's cycle executor on w workers, building it on first
// use.
func (s *Solver) executor(w int) *executor {
	for _, x := range s.execs {
		if len(x.blocks) == w {
			return x
		}
	}
	x := newExecutor(s, w, func(x driver) (float64, error) { return s.cycle(x, 0) })
	s.execs = append(s.execs, x)
	return x
}

func (x *executor) runBlock(k int) {
	norm, err := x.prog(&x.blocks[k])
	x.norms[k] = norm
	x.fail(err)
}

// run executes the program once on every block and returns processor 0's
// result and the run's first error.
func (x *executor) run() (float64, error) {
	x.err = nil
	x.pool.Fork(x.work, len(x.blocks))
	return x.norms[0], x.err
}

// fail records the first error.
func (x *executor) fail(err error) {
	if err == nil {
		return
	}
	x.mu.Lock()
	if x.err == nil {
		x.err = err
	}
	x.mu.Unlock()
}

func (x *executor) firstErr() error {
	x.mu.Lock()
	err := x.err
	x.mu.Unlock()
	return err
}

func (b *block) procs() (lo, hi int) { return b.lo, b.hi }

// sync joins the barrier, marks the wait on the block's timeline, and
// returns the run's first error, nil while it is healthy. The verdict is
// evaluated once, by the last worker to arrive, and shared with all
// (Barrier.AwaitCheck), so every worker takes the same continue/bail
// decision and the bulk-synchronous control flow stays in lockstep even
// when an error lands mid-phase.
func (b *block) sync(dir parti.Dir, lev int) error {
	ok := b.bar.AwaitCheck(b.healthy)
	b.tl.mark(spanBarrier, dir, lev)
	if ok {
		return nil
	}
	return b.firstErr()
}

// half runs one half of an exchange (parti's Send or Recv) for every
// processor of the block in order, stopping at the first error, which it
// records.
func (b *block) half(op func(*parti.Schedule, *simnet.Fabric, parti.Dir, int, parti.Arrays) error, sch *parti.Schedule, dir parti.Dir, a parti.Arrays) {
	for p := b.lo; p < b.hi; p++ {
		if err := op(sch, b.s.Fabric, dir, p, a); err != nil {
			b.fail(err)
			return
		}
	}
}

// exchange is the block's send halves, a barrier, its receive halves and a
// barrier. The worker that owns processor 0 keeps the counters for all.
func (b *block) exchange(dir parti.Dir, sch *parti.Schedule, lev *Level, a parti.Arrays) error {
	if b.lo == 0 {
		b.s.count(dir)
	}
	b.tl.mark(spanCompute, dir, lev.Index)
	b.half((*parti.Schedule).Send, sch, dir, a)
	b.tl.mark(spanSend, dir, lev.Index)
	if err := b.sync(dir, lev.Index); err != nil {
		return err
	}
	b.half((*parti.Schedule).Recv, sch, dir, a)
	b.tl.mark(spanRecv, dir, lev.Index)
	return b.sync(dir, lev.Index)
}

// sum is a barrier, the total in processor order, and a barrier: the
// second keeps a fast worker from rewriting part before a slow one has
// read it.
func (b *block) sum(part []float64) (float64, error) {
	b.tl.mark(spanCompute, parti.Gather, 0)
	if err := b.sync(parti.Gather, 0); err != nil {
		return 0, err
	}
	return total(part), b.sync(parti.Gather, 0)
}

// Workers returns the number of workers Cycle runs the processors on:
// min(P, GOMAXPROCS at construction), or one while a fault plan is
// attached, so that the plan's wildcard events strike the same sends on
// every run.
func (s *Solver) Workers() int {
	if s.Fabric.FaultPlan() != nil {
		return 1
	}
	return s.workers
}

// Cycle performs one multigrid cycle (or a plain time step for a single
// level) on Workers() workers and returns the fine-grid residual norm.
func (s *Solver) Cycle() (float64, error) {
	return s.executor(s.Workers()).run()
}

// CycleConcurrent performs one cycle with a worker per simulated processor
// — the Delta's node program, each node on its own goroutine — and returns
// the fine-grid residual norm, bitwise Cycle's. Run never calls it: it is
// the W = P reference Cycle is checked against.
func (s *Solver) CycleConcurrent() (float64, error) {
	return s.executor(s.NProc).run()
}
