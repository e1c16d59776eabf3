package simnet

import (
	"sync"
	"sync/atomic"

	"eul3d/internal/forkjoin"
)

// Barrier is a reusable (cyclic) synchronization barrier for n parties —
// the bulk-synchronous structure of the distributed solver's executor: all
// processors send, barrier, all receive, barrier.
//
// A party that arrives early polls for the release under the pools' rule
// (forkjoin.Poll) before it parks. The phases between two barriers last
// tens to hundreds of microseconds, about what waking a parked thread costs
// on a virtual machine, so parking at every barrier would cost a large
// share of the cycle. The parties of the distributed executor are pool
// goroutines, counted busy: with more of them than processors, or beside
// another engine's busy goroutines, a poller would only keep a runnable
// goroutine off its processor, so they park at once.
type Barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	count   int
	gen     atomic.Uint64
	verdict atomic.Bool
}

// NewBarrier creates a barrier for n parties (n >= 1).
func NewBarrier(n int) *Barrier {
	b := &Barrier{n: n}
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
	b.wait(gen)
	return b.verdict.Load()
}

// wait returns once generation gen has been released: it polls under the
// pools' rule (forkjoin.Poll), then parks.
func (b *Barrier) wait(gen uint64) {
	released := func() bool { return b.gen.Load() != gen }
	if forkjoin.Poll(released) {
		return
	}
	b.mu.Lock()
	for !released() {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
