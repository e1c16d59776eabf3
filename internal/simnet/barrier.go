package simnet

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Barrier is a reusable (cyclic) synchronization barrier for n parties —
// the bulk-synchronous structure of the distributed solver's executor: all
// processors send, barrier, all receive, barrier.
//
// When every party can have a processor of its own (n <= GOMAXPROCS at
// construction), a party that arrives early polls for the release for up
// to spinFor before it parks. The phases between two barriers last tens to
// hundreds of microseconds, about what waking a parked thread costs on a
// virtual machine, so parking at every barrier would cost a large share of
// the cycle. It polls without yielding: a poller that yields goes back to
// the scheduler's global queue without waking an idle processor, and two
// parties can then end up taking turns on one processor for good. With more
// parties than processors a poller would only keep a runnable party off
// its processor, so they park at once.
type Barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	count   int
	spin    bool
	gen     atomic.Uint64
	verdict atomic.Bool
}

// spinFor bounds how long an early party polls for the release: about the
// largest gap between two parties' arrivals in the distributed cycle on
// the benchmark's mesh, on the 2-vCPU host (EXPERIMENTS.md, "One
// executor").
const spinFor = 200 * time.Microsecond

// NewBarrier creates a barrier for n parties (n >= 1).
func NewBarrier(n int) *Barrier {
	b := &Barrier{n: n, spin: n <= runtime.GOMAXPROCS(0)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Await blocks until all n parties have called Await, then releases them
// all; the barrier is immediately reusable for the next phase.
func (b *Barrier) Await() {
	b.AwaitCheck(nil)
}

// AwaitCheck is Await with a consistent verdict: when the last party
// arrives it evaluates check once, and every released party receives that
// same value. This is how bulk-synchronous error handling stays in
// lockstep — a health flag read *after* a barrier individually could be
// flipped by a fast party that already ran ahead into the next phase,
// leaving slow parties to bail while fast ones wait at the next barrier.
// The verdict field is safe to reuse across generations because the next
// release cannot happen until every party of this generation has returned.
func (b *Barrier) AwaitCheck(check func() bool) bool {
	b.mu.Lock()
	gen := b.gen.Load()
	b.count++
	if b.count == b.n {
		b.count = 0
		v := check == nil || check()
		b.verdict.Store(v)
		b.gen.Store(gen + 1)
		b.cond.Broadcast()
		b.mu.Unlock()
		return v
	}
	b.mu.Unlock()
	if b.spin {
		for start := time.Now(); time.Since(start) < spinFor; {
			if b.gen.Load() != gen {
				return b.verdict.Load()
			}
		}
	}
	b.mu.Lock()
	for b.gen.Load() == gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
	return b.verdict.Load()
}
