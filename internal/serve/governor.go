package serve

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

// Governor is the global worker-budget semaphore: every running job holds
// its worker count for the duration of the run — a one-worker job holds
// one core — so the total number of busy workers across concurrent jobs
// never exceeds the budget. (Parked workers of idle cached engines cost
// nothing and are not charged.) Waiters are served FIFO, which prevents a
// stream of small requests from starving a large one.
type Governor struct {
	mu      sync.Mutex
	cap     int
	used    int
	peak    int
	waiters list.List // of *govWaiter
}

type govWaiter struct {
	n     int
	ready chan struct{}
}

// NewGovernor builds a governor with the given total worker budget.
func NewGovernor(budget int) *Governor {
	if budget < 1 {
		budget = 1
	}
	return &Governor{cap: budget}
}

// Cap returns the total budget.
func (g *Governor) Cap() int { return g.cap }

// InUse returns the workers currently held.
func (g *Governor) InUse() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.used
}

// Peak returns the high-water mark of held workers; by construction it can
// never exceed Cap, and tests assert that through the metrics endpoint.
func (g *Governor) Peak() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}

// Acquire blocks until n workers fit under the budget or ctx is done.
// n <= 0 acquires nothing; n > Cap can never be satisfied and errors
// immediately (callers reject such jobs at admission).
func (g *Governor) Acquire(ctx context.Context, n int) error {
	if n <= 0 {
		return nil
	}
	if n > g.cap {
		return fmt.Errorf("serve: job wants %d workers, budget is %d", n, g.cap)
	}
	g.mu.Lock()
	if g.waiters.Len() == 0 && g.used+n <= g.cap {
		g.used += n
		if g.used > g.peak {
			g.peak = g.used
		}
		g.mu.Unlock()
		return nil
	}
	w := &govWaiter{n: n, ready: make(chan struct{})}
	elem := g.waiters.PushBack(w)
	g.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		g.mu.Lock()
		select {
		case <-w.ready:
			// Granted concurrently with cancellation: give it back.
			g.release(n)
		default:
			g.waiters.Remove(elem)
		}
		g.mu.Unlock()
		return ctx.Err()
	}
}

// Release returns n workers to the budget and wakes eligible waiters.
func (g *Governor) Release(n int) {
	if n <= 0 {
		return
	}
	g.mu.Lock()
	g.release(n)
	g.mu.Unlock()
}

// release is Release with g.mu held.
func (g *Governor) release(n int) {
	g.used -= n
	if g.used < 0 {
		panic("serve: governor released more workers than acquired")
	}
	for e := g.waiters.Front(); e != nil; {
		w := e.Value.(*govWaiter)
		if g.used+w.n > g.cap {
			break // strict FIFO: never overtake the head waiter
		}
		next := e.Next()
		g.waiters.Remove(e)
		g.used += w.n
		if g.used > g.peak {
			g.peak = g.used
		}
		close(w.ready)
		e = next
	}
}
