package cluster

import (
	"math/rand"
	"sync"
	"time"
)

// Backoff computes jittered exponential retry delays for coordinator→node
// calls. Delays double from Base up to Max, and each is jittered by ±Jitter
// (a fraction) so a burst of retries against a recovering node spreads out
// instead of arriving in lockstep. The jitter source is seeded with
// backoffSeed, so every policy draws the same sequence and tests stay
// deterministic.
type Backoff struct {
	Base   time.Duration
	Max    time.Duration
	Jitter float64

	mu  sync.Mutex
	rng *rand.Rand
}

// NewBackoff builds a backoff policy. Zero base/max fall back to
// 100ms/5s; jitter defaults to 0.5.
func NewBackoff(base, max time.Duration) *Backoff {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	return &Backoff{Base: base, Max: max, Jitter: 0.5, rng: rand.New(rand.NewSource(backoffSeed))}
}

// Delay returns the jittered delay for the given zero-based attempt.
func (b *Backoff) Delay(attempt int) time.Duration {
	d := b.Base
	for i := 0; i < attempt && d < b.Max; i++ {
		d *= 2
	}
	if d > b.Max {
		d = b.Max
	}
	if b.Jitter > 0 {
		b.mu.Lock()
		f := 1 + b.Jitter*(2*b.rng.Float64()-1)
		b.mu.Unlock()
		d = time.Duration(float64(d) * f)
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// DelayAfter combines the exponential schedule with a server-provided
// Retry-After hint: the next sleep is never shorter than what the server
// asked for, so the coordinator honors explicit backpressure instead of
// hammering a node that just said it was full.
func (b *Backoff) DelayAfter(attempt int, retryAfter time.Duration) time.Duration {
	d := b.Delay(attempt)
	if retryAfter > d {
		return retryAfter
	}
	return d
}
