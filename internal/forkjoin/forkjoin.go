// Package forkjoin is the persistent worker pool both parallel engines run
// on: N-1 long-lived goroutines that poll for the next fork for up to
// PollFor before they park on their wake channels. A region that follows
// closely costs one atomic swap per worker to start and an atomic
// decrement to join; after a pause, a channel send per worker and a
// receive. Neither allocates. smsolver forks one region per colored loop,
// dmsolver one per cycle.
package forkjoin

import (
	"runtime"
	"sync/atomic"
	"time"
)

// PollFor bounds every poll: about what waking a parked thread costs on a
// virtual machine, and the largest gap between two parties' arrivals at a
// barrier of the distributed cycle on a 2-vCPU host (EXPERIMENTS.md, "One
// executor", "A pool that stays awake").
const PollFor = 200 * time.Microsecond

// yieldEvery is how often a polling worker yields its processor.
// Goroutines outside the pools are not counted busy, and a pool that forks
// back to back would keep them waiting for the runtime's 10 ms preemption.
// Unlike Poll's callers, a worker may yield: Fork takes it wherever it
// waits, and the start check (Pool.joined) keeps the forker from spinning
// for it while it waits for its processor back.
const yieldEvery = PollFor / 4

// startBy bounds how long a joiner waits for a worker it took polling, but
// off its processor, to start (Pool.joined).
const startBy = PollFor / 4

// busy counts the goroutines of every pool in the process that are running
// a region of two or more workers or polling: each such region's forker for
// the length of its Fork, and each worker from the Fork that takes it until
// it parks again.
var busy atomic.Int32

// seqUntil is when the sequential engines' lease runs out, in Unix
// nanoseconds (a step of the wall clock only stretches or cuts one lease
// short): while it lies ahead, a one-worker pool has run a region
// lately, and the pools count one more busy goroutine. Every seqEvery-th
// inline region of a one-worker pool renews it for seqLease. Counting each
// inline region in busy would take two atomics a region, and under the
// race detector those made a sequential engine a third slower.
var seqUntil atomic.Int64

const (
	seqEvery = 16
	seqLease = 2 * time.Millisecond
)

// mayPoll is the pools' one polling rule: poll only while every busy pool
// goroutine, and a sequential engine that ran lately, can have a processor
// of its own.
func mayPoll(procs int32) bool {
	n := busy.Load()
	if time.Now().UnixNano() < seqUntil.Load() {
		n++
	}
	return n <= procs
}

// Poll spins until done reports true and returns true, or returns false
// once PollFor has passed or mayPoll fails. It does not yield: a yielding
// poller re-queues itself without waking an idle processor, and two
// goroutines can end up taking turns on one for good.
func Poll(done func() bool) bool {
	return poll(int32(runtime.GOMAXPROCS(0)), PollFor, done)
}

func poll(procs int32, bound time.Duration, done func() bool) bool {
	for start := time.Now(); mayPoll(procs) && time.Since(start) < bound; {
		if done() {
			return true
		}
	}
	return false
}

// joinParked is added to Pool.pending by a joiner that parks on done; the
// worker whose decrement leaves exactly joinParked signals it. One atomic
// word decides it, so no signal can reach a later region's join.
const joinParked = 1 << 30

// A worker's state. Fork swaps in taken, and wakes the worker through its
// channel unless the old state was polling; the worker gives up polling
// only by a CAS that fails once Fork has swapped. So exactly one side
// decides how a region reaches a worker.
const (
	idle    int32 = iota // running or parked: Fork must wake it
	polling              // polling for the next fork
	taken                // handed a region by Fork, not started yet
)

// Pool is the fork/join barrier itself. It deliberately holds no reference
// to its owner between forks (fn is cleared after every join), so an owner
// abandoned without Shutdown becomes unreachable and a runtime cleanup
// registered on it can shut the workers down.
type Pool struct {
	workers []worker // 1..n-1; workers[0] is the caller's and unused
	fn      func(worker int)
	procs   int32         // GOMAXPROCS, read once a Fork
	missed  time.Time     // when joined last waited startBy in vain
	inline  int           // regions run inline, for the sequential lease
	pending atomic.Int32  // workers still running, plus joinParked
	done    chan struct{} // signalled by the last worker of a parked join
	closed  atomic.Bool
}

// worker is one worker's slot, alone on its cache line: the forker swaps
// its state once a region, and the worker polls it between regions.
type worker struct {
	state atomic.Int32
	wake  chan struct{} // buffered; closed on shutdown
	_     [48]byte
}

// New starts n-1 parked workers (the caller is worker 0); n must be at
// least 1.
func New(n int) *Pool {
	if n < 1 {
		panic("forkjoin: a pool needs at least one worker")
	}
	p := &Pool{workers: make([]worker, n), done: make(chan struct{}, 1)}
	for i := 1; i < n; i++ {
		p.workers[i].wake = make(chan struct{}, 1)
		go p.worker(i)
	}
	return p
}

func (p *Pool) worker(id int) {
	w := &p.workers[id]
	yielded := time.Now()
	for range w.wake {
		for {
			w.state.Store(idle) // the start a polling joiner looks for
			p.fn(id)
			// Decide before the join, so that the next Fork finds the
			// worker either polling or about to park.
			procs := p.procs
			stay := mayPoll(procs)
			if stay {
				w.state.Store(polling)
			} else {
				busy.Add(-1)
			}
			if p.pending.Add(-1) == joinParked {
				p.done <- struct{}{}
				if stay {
					// The send readied the joiner on this processor, behind
					// this goroutine: let it run here at once, rather than
					// poll while it waits for another processor to steal it.
					runtime.Gosched()
					yielded = time.Now()
				}
			}
			if !stay {
				break
			}
			poll(procs, PollFor, func() bool {
				if time.Since(yielded) >= yieldEvery {
					runtime.Gosched()
					yielded = time.Now()
				}
				return w.state.Load() != polling || p.closed.Load()
			})
			if w.state.CompareAndSwap(polling, idle) {
				busy.Add(-1)
				break // park, or exit after Shutdown
			}
			// Fork took the worker: run its region.
		}
	}
}

// Fork runs fn(0..active-1), executing fn(0) on the calling goroutine, and
// returns after every worker has finished; active must not exceed the
// pool's size. The caller must publish the job descriptor before forking;
// the atomics and channel operations of the fork and the join provide the
// happens-before edges in both directions.
//
// A polling worker is taken with one swap of its state, a parked one woken
// with a send as well. The forker then parks for the join unless it took
// every worker polling (rule 2: one it had to wake may still be waiting for
// a processor, which a polling joiner would be holding) and joined polls.
func (p *Pool) Fork(fn func(int), active int) {
	if active <= 1 {
		if p.inline++; len(p.workers) == 1 && p.inline%seqEvery == 0 {
			seqUntil.Store(time.Now().Add(seqLease).UnixNano())
		}
		fn(0)
		return
	}
	busy.Add(1)
	procs := int32(runtime.GOMAXPROCS(0))
	p.fn, p.procs = fn, procs
	p.pending.Store(int32(active - 1))
	woke := false
	for i := 1; i < active; i++ {
		if w := &p.workers[i]; w.state.Swap(taken) != polling {
			woke = true
			busy.Add(1)
			w.wake <- struct{}{}
		}
	}
	fn(0)
	if woke || !p.joined(procs, active) {
		// Announce the park: if every worker has finished, none will
		// signal; otherwise the last one's decrement sees the mark.
		if p.pending.Add(joinParked) != joinParked {
			<-p.done
		}
	}
	p.fn = nil
	busy.Add(-1)
}

// joined polls for the join of workers taken polling, and reports whether
// it came. It first looks for every worker to have started: a polling
// worker starts within a microsecond, so one that has not is off its
// processor (it yielded, or was preempted) and a joiner that polled for it
// might be holding the processor it waits for. It waits startBy for a late
// start, long enough for an idle processor's thread to wake and pick the
// worker up; after a miss it only looks once, until PollFor has passed
// since the last one.
func (p *Pool) joined(procs int32, active int) bool {
	started := func() bool {
		for i := 1; i < active; i++ {
			if p.workers[i].state.Load() == taken {
				return false
			}
		}
		return true
	}
	if !started() {
		if time.Since(p.missed) < PollFor || !poll(procs, startBy, started) {
			p.missed = time.Now()
			return false
		}
	}
	return poll(procs, PollFor, p.finished)
}

// finished reports whether every worker of the region has finished.
func (p *Pool) finished() bool { return p.pending.Load() == 0 }

// Shutdown terminates the workers; idempotent. The pool must not fork
// afterwards.
func (p *Pool) Shutdown() {
	if p.closed.CompareAndSwap(false, true) {
		for i := 1; i < len(p.workers); i++ {
			close(p.workers[i].wake)
		}
	}
}
