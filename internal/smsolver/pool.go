package smsolver

import (
	"sync"
	"sync/atomic"

	"eul3d/internal/euler"
)

// This file is the persistent worker-pool engine: N-1 long-lived goroutines
// parked on buffered wake channels, driven through a lightweight fork/join
// barrier, plus the prebuilt chunk tables that turn every colored loop into
// a table lookup. The seed implementation paid a goroutine spawn and a
// sync.WaitGroup fork/join for every color group of every kernel of every
// RK stage — thousands of launches per time step; here a parallel region is
// one channel send per woken worker, one atomic decrement per worker, and
// one channel receive for the join, with zero allocations.

// span is a half-open index range [lo,hi) assigned to one worker.
type span struct{ lo, hi int }

// minChunk is the smallest amount of per-worker work worth a wakeup: loops
// shorter than minChunk*workers run on fewer workers (down to inline
// execution by the caller), which keeps a small tail group from paying
// barrier latency for a handful of edges.
const minChunk = 256

// workersFor returns how many of nw workers a loop of n elements wakes.
func workersFor(n, nw int) int { return max(1, min(n/minChunk, nw)) }

// buildSpans splits [0,n) into contiguous chunks for up to nw workers,
// reusing dst, and returns the per-worker spans (always nw entries; trailing
// ones may be empty) and the number of workers that actually receive work.
// The split is balanced by element count: every active worker gets
// ⌊n/active⌋ or ⌈n/active⌉ elements, the remainder spread one-per-worker
// from the front.
func buildSpans(dst []span, n, nw int) ([]span, int) {
	active := workersFor(n, nw)
	spans := euler.Grow(dst, nw)
	clear(spans)
	q, r := n/active, n%active
	lo := 0
	for w := 0; w < active; w++ {
		hi := lo + q
		if w < r {
			hi++
		}
		spans[w] = span{lo, hi}
		lo = hi
	}
	return spans, active
}

// cutRuns splits one group of a block coloring — runs holds its run
// boundaries, first to last — into len(dst) shares, fewer if it has fewer
// runs, and returns how many it made. A cut falls only on a run boundary,
// the one nearest the even split by element count: two runs of a group
// share no vertex, two halves of one run do, so a cut inside a run would be
// a data race. With runs of one element this is the even split.
func cutRuns(runs []int32, dst []span) int {
	first, n := int(runs[0]), int(runs[len(runs)-1]-runs[0])
	shares := max(1, min(len(dst), len(runs)-1))
	lo, r := first, 0
	for w := 0; w < shares; w++ {
		want := first + (w+1)*n/shares
		for r+1 < len(runs) && int(runs[r+1]) <= want {
			r++
		}
		if r+1 < len(runs) && int(runs[r+1])-want < want-int(runs[r]) {
			r++
		}
		dst[w] = span{lo, int(runs[r])}
		lo = int(runs[r])
	}
	return shares
}

// pool is the fork/join barrier itself. It deliberately holds no reference
// to the Solver between forks (fn is cleared after every join), so a Solver
// abandoned without Close becomes unreachable and its runtime cleanup can
// shut the workers down.
type pool struct {
	wake    []chan struct{} // one per worker 1..nw-1, buffered
	done    chan struct{}   // signalled by the last finishing worker
	quit    chan struct{}   // closed on shutdown
	pending atomic.Int32
	fn      func(worker int)
	stop    sync.Once
}

// newPool starts nw-1 parked workers (the caller is worker 0).
func newPool(nw int) *pool {
	p := &pool{
		wake: make([]chan struct{}, nw),
		done: make(chan struct{}, 1),
		quit: make(chan struct{}),
	}
	for i := 1; i < nw; i++ {
		p.wake[i] = make(chan struct{}, 1)
		go p.worker(i)
	}
	return p
}

func (p *pool) worker(id int) {
	for {
		select {
		case <-p.quit:
			return
		case <-p.wake[id]:
			p.fn(id)
			if p.pending.Add(-1) == 0 {
				p.done <- struct{}{}
			}
		}
	}
}

// fork runs fn(0..active-1), executing fn(0) on the calling goroutine, and
// returns after every worker has finished. The caller must publish the job
// descriptor before forking; the channel operations and the atomic join
// counter provide the happens-before edges in both directions.
func (p *pool) fork(fn func(int), active int) {
	if active <= 1 {
		fn(0)
		return
	}
	p.fn = fn
	p.pending.Store(int32(active - 1))
	for i := 1; i < active; i++ {
		p.wake[i] <- struct{}{}
	}
	fn(0)
	<-p.done
	p.fn = nil
}

// shutdown terminates the workers; idempotent.
func (p *pool) shutdown() { p.stop.Do(func() { close(p.quit) }) }
