package color

import (
	"fmt"
	"math/bits"
	"slices"
)

// Blocks is a coloring of runs: the element list is cut into contiguous
// runs of at most B elements, and the runs — not the elements — are
// grouped so that no two runs of one group share a vertex. Elements of one
// run may share vertices freely, so a run is the unit of parallel work: one
// worker walks it in source order, and workers holding different runs of a
// group never meet. A cache machine wants this form (a run's vertices are
// reused while they are resident, and a pass joins once per group, of which
// there are few); a vector pipe wants B = 1, where every run is one element
// and Blocks is exactly the per-element Coloring that Greedy builds.
//
// Order lists group after group, each group's runs in source order and each
// run's elements in source order; Start bounds the groups and Run the runs,
// both as offsets into Order, so every Start[g] is also a run boundary.
type Blocks struct {
	Coloring
	Run []int32 // run boundaries, ascending from 0 to len(Order)

	// Scratch kept between BlockedInto calls.
	mask     []uint64 // per vertex: which of groups 0..63 hold it
	runColor []int32
	next     []int32 // per group: next free slot of Order, then of Run
}

// Elem is an element's vertex tuple: an edge or a boundary triangle.
type Elem interface{ [2]int32 | [3]int32 }

// Blocked cuts elems (over nv vertices) into runs of b and colors the runs
// greedily in source order: each run takes the lowest group none of its
// vertices is in yet. Blocked(nv, elems, 1) groups exactly as Greedy and
// GreedyFaces do.
func Blocked[E Elem](nv int, elems []E, b int) (*Blocks, error) {
	bl := new(Blocks)
	_, err := BlockedInto(bl, nv, elems, b, 0)
	return bl, err
}

// fit returns a length-n slice over s's array, or over a new one with 25%
// headroom when that is too small. Contents are unspecified.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
}

// BlockedInto is Blocked into bl, reusing bl's arrays where they are large
// enough — the form an engine that recolors a refined mesh every adaptive
// epoch calls — and, with maxGroups > 0, giving up (false, bl's coloring
// untouched) as soon as a run needs a group beyond that many: a caller
// trying run lengths need not pay for a coloring it will throw away. On
// error bl's coloring is untouched too.
func BlockedInto[E Elem](bl *Blocks, nv int, elems []E, b, maxGroups int) (bool, error) {
	if b < 1 {
		return false, fmt.Errorf("color: run length %d < 1", b)
	}
	n := len(elems)

	// Groups below 64 are a bit per vertex; the rare ones above (a hub of
	// degree > 64 at b = 1) spill to a lazily made per-vertex list.
	mask := fit(bl.mask, nv)
	clear(mask)
	var spill map[int32][]int32
	var taken []int32

	nruns := (n + b - 1) / b
	runColor := fit(bl.runColor, nruns)
	nc := int32(0)
	for r := range runColor {
		run := elems[r*b : min((r+1)*b, n)]
		var held uint64
		for i := range run {
			e := run[i]
			for k := 0; k < len(e); k++ {
				if e[k] < 0 || int(e[k]) >= nv {
					return false, fmt.Errorf("color: element %d vertex %d out of range [0,%d)", r*b+i, e[k], nv)
				}
				if e[k] == e[(k+1)%len(e)] {
					return false, fmt.Errorf("color: element %d repeats vertex %d", r*b+i, e[k])
				}
				held |= mask[e[k]]
			}
		}
		c := int32(bits.TrailingZeros64(^held))
		if c == 64 {
			taken = taken[:0]
			for i := range run {
				e := run[i]
				for k := 0; k < len(e); k++ {
					taken = append(taken, spill[e[k]]...)
				}
			}
			slices.Sort(taken)
			for _, t := range taken {
				if t == c {
					c++
				}
			}
		}
		if maxGroups > 0 && int(c) >= maxGroups {
			return false, nil
		}
		runColor[r] = c
		for i := range run {
			e := run[i]
			for k := 0; k < len(e); k++ {
				if c < 64 {
					mask[e[k]] |= 1 << uint(c)
				} else {
					if spill == nil {
						spill = make(map[int32][]int32)
					}
					spill[e[k]] = append(spill[e[k]], c)
				}
			}
		}
		nc = max(nc, c+1)
	}

	// Counting sort of the runs by group, stable in source order: count each
	// group's elements and runs, turn the counts into each group's next free
	// slot of Order and of Run, place.
	start := fit(bl.Start, int(nc)+1)
	next := fit(bl.next, 2*int(nc))
	clear(start)
	clear(next)
	nextElem, nextRun := next[:nc], next[nc:]
	for r, c := range runColor {
		start[c+1] += int32(min((r+1)*b, n) - r*b)
		nextRun[c]++
	}
	before := int32(0)
	for g := range nextRun {
		start[g+1] += start[g]
		nextElem[g] = start[g]
		before, nextRun[g] = before+nextRun[g], before
	}
	order := fit(bl.Order, n)
	runs := fit(bl.Run, nruns+1)
	for r, c := range runColor {
		pos := nextElem[c]
		runs[nextRun[c]] = pos
		nextRun[c]++
		for ei := r * b; ei < min((r+1)*b, n); ei++ {
			order[pos] = int32(ei)
			pos++
		}
		nextElem[c] = pos
	}
	runs[nruns] = int32(n)
	bl.Order, bl.Start, bl.Run = order, start, runs
	bl.mask, bl.runColor, bl.next = mask, runColor, next
	return true, nil
}

// DropScratch releases what BlockedInto keeps between calls, for a Blocks
// that will not be refilled.
func (b *Blocks) DropScratch() { b.mask, b.runColor, b.next = nil, nil, nil }

// NumRuns returns the number of runs.
func (b *Blocks) NumRuns() int { return len(b.Run) - 1 }

// GroupRuns returns the run boundaries of group g: a sub-slice of Run that
// begins at Start[g] and ends at Start[g+1].
func (b *Blocks) GroupRuns(g int) []int32 {
	lo, _ := slices.BinarySearch(b.Run, b.Start[g])
	hi, _ := slices.BinarySearch(b.Run, b.Start[g+1])
	return b.Run[lo : hi+1]
}

// UnitRuns returns a copy of c as the block coloring with runs of one
// element.
func UnitRuns(c *Coloring) *Blocks {
	run := make([]int32, len(c.Order)+1)
	for i := range run {
		run[i] = int32(i)
	}
	return &Blocks{Coloring: Coloring{Order: slices.Clone(c.Order), Start: slices.Clone(c.Start)}, Run: run}
}

// VerifyBlocks checks that b is a block coloring of elems: Order a
// permutation, every run a contiguous ascending range of the source list,
// every group boundary a run boundary, and no vertex in two runs of one
// group.
func VerifyBlocks[E Elem](b *Blocks, nv int, elems []E) error {
	n := len(elems)
	if len(b.Order) != n {
		return fmt.Errorf("color: order length %d != element count %d", len(b.Order), n)
	}
	if len(b.Start) == 0 || b.Start[0] != 0 || int(b.Start[len(b.Start)-1]) != n {
		return fmt.Errorf("color: group table %v does not span [0,%d]", b.Start, n)
	}
	if len(b.Run) == 0 || b.Run[0] != 0 || int(b.Run[len(b.Run)-1]) != n {
		return fmt.Errorf("color: run table does not span [0,%d]", n)
	}
	seen := make([]bool, n)
	for _, ei := range b.Order {
		if ei < 0 || int(ei) >= n {
			return fmt.Errorf("color: element index %d out of range", ei)
		}
		if seen[ei] {
			return fmt.Errorf("color: element %d appears twice", ei)
		}
		seen[ei] = true
	}
	// heldBy[v] is the last run (stamped with its group) that touched v.
	type stamp struct{ group, run int32 }
	heldBy := make([]stamp, nv)
	for i := range heldBy {
		heldBy[i] = stamp{-1, -1}
	}
	g := 0
	for r := 0; r+1 < len(b.Run); r++ {
		lo, hi := b.Run[r], b.Run[r+1]
		if lo >= hi {
			return fmt.Errorf("color: run %d is empty or descending: [%d,%d)", r, lo, hi)
		}
		for g+1 < len(b.Start) && b.Start[g+1] <= lo {
			g++
		}
		if hi > b.Start[g+1] {
			return fmt.Errorf("color: run %d [%d,%d) straddles the group boundary %d", r, lo, hi, b.Start[g+1])
		}
		for at := lo; at < hi; at++ {
			if at > lo && b.Order[at] != b.Order[at-1]+1 {
				return fmt.Errorf("color: run %d is not a contiguous source range at offset %d", r, at)
			}
			e := elems[b.Order[at]]
			for k := 0; k < len(e); k++ {
				if h := heldBy[e[k]]; h.group == int32(g) && h.run != int32(r) {
					return fmt.Errorf("color: vertex %d is in runs %d and %d of group %d", e[k], h.run, r, g)
				}
				heldBy[e[k]] = stamp{int32(g), int32(r)}
			}
		}
	}
	return nil
}
