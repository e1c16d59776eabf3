// Package forkjoin is the persistent worker pool both parallel engines run
// on: N-1 long-lived goroutines parked on buffered wake channels, driven
// through a lightweight fork/join barrier. A parallel region is one channel
// send per woken worker, one atomic decrement per worker and one channel
// receive for the join, with zero allocations.
//
// The shared-memory engine (smsolver) forks one region per colored loop;
// the distributed engine (dmsolver) forks one per cycle, each worker
// running the node program for a block of simulated processors.
package forkjoin

import "sync/atomic"

// Pool is the fork/join barrier itself. It deliberately holds no reference
// to its owner between forks (fn is cleared after every join), so an owner
// abandoned without Shutdown becomes unreachable and a runtime cleanup
// registered on it can shut the workers down.
type Pool struct {
	wake    []chan struct{} // one per worker 1..n-1, buffered; closed on shutdown
	done    chan struct{}   // signalled by the last finishing worker
	pending atomic.Int32
	fn      func(worker int)
	closed  atomic.Bool
}

// New starts n-1 parked workers (the caller is worker 0); n must be at
// least 1.
func New(n int) *Pool {
	if n < 1 {
		panic("forkjoin: a pool needs at least one worker")
	}
	p := &Pool{
		wake: make([]chan struct{}, n),
		done: make(chan struct{}, 1),
	}
	for i := 1; i < n; i++ {
		p.wake[i] = make(chan struct{}, 1)
		go p.worker(i)
	}
	return p
}

func (p *Pool) worker(id int) {
	for range p.wake[id] {
		p.fn(id)
		if p.pending.Add(-1) == 0 {
			p.done <- struct{}{}
		}
	}
}

// Fork runs fn(0..active-1), executing fn(0) on the calling goroutine, and
// returns after every worker has finished; active must not exceed the
// pool's size. The caller must publish the job descriptor before forking;
// the channel operations and the atomic join counter provide the
// happens-before edges in both directions.
func (p *Pool) Fork(fn func(int), active int) {
	if active > 1 {
		p.fn = fn
		p.pending.Store(int32(active - 1))
		for _, w := range p.wake[1:active] {
			w <- struct{}{}
		}
	}
	fn(0)
	if active > 1 {
		<-p.done
		p.fn = nil
	}
}

// Shutdown terminates the workers; idempotent. The pool must not fork
// afterwards.
func (p *Pool) Shutdown() {
	if p.closed.CompareAndSwap(false, true) {
		for i := 1; i < len(p.wake); i++ {
			close(p.wake[i])
		}
	}
}
