package smsolver

import "eul3d/internal/euler"

// This file builds the prebuilt chunk tables that turn every colored loop
// into a table lookup for the persistent worker pool (internal/forkjoin):
// the per-worker shares of a vertex loop and of one group of a block
// coloring.

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
