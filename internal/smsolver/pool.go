package smsolver

import "eul3d/internal/euler"

// This file builds the prebuilt chunk tables that turn every loop into a
// table lookup for the persistent worker pool (internal/forkjoin): the
// per-worker shares of a vertex loop, which are also the vertex ranges the
// workers own in the edge and face sweeps (layout.go).

// span is a half-open index range [lo,hi) assigned to one worker.
type span struct{ lo, hi int }

// minChunk is the smallest amount of per-worker work worth a wakeup: loops
// shorter than minChunk*workers run on fewer workers (down to inline
// execution by the caller), which keeps a small coarse grid from paying
// barrier latency for a handful of vertices.
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
