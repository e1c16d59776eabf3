// Package color implements the edge-coloring preprocessing step used by
// EUL3D on vector/parallel shared-memory machines. The edge loop is divided
// into groups ("colors") such that within a group no two edges touch the
// same vertex, so each group is free of data recurrences and can be
// vectorized and further chunked across processors (Cray autotasking). The
// C90 model (internal/machine, the tables) reads it; the pooled engine does
// not color, its workers own vertices instead (internal/smsolver).
package color

import (
	"fmt"
	"math/bits"
	"slices"
)

// Coloring holds a partition of the edge list into recurrence-free groups.
// Group g occupies Order[Start[g]:Start[g+1]], where Order is a permutation
// of edge indices.
type Coloring struct {
	Order []int32 // edge indices grouped by color
	Start []int32 // group boundaries, len = NumColors+1
}

// NumColors returns the number of groups.
func (c *Coloring) NumColors() int { return len(c.Start) - 1 }

// Group returns the edge indices of color g.
func (c *Coloring) Group(g int) []int32 { return c.Order[c.Start[g]:c.Start[g+1]] }

// GroupSizes returns the number of edges in each color.
func (c *Coloring) GroupSizes() []int {
	s := make([]int, c.NumColors())
	for g := range s {
		s[g] = int(c.Start[g+1] - c.Start[g])
	}
	return s
}

// elem is an element's vertex tuple: an edge or a boundary triangle.
type elem interface{ [2]int32 | [3]int32 }

// Greedy colors the edges of a mesh with nv vertices greedily in a single
// sweep: each edge, in order, takes the lowest color not already incident on
// either endpoint. By Vizing-type arguments the number of colors is bounded
// by roughly twice the maximum vertex degree; on EUL3D-style tetrahedral
// meshes it lands in the 20–40 range the paper reports ("the typical number
// of groups is ... say 20 to 30"). Each group lists its edges in source
// order.
func Greedy(nv int, edges [][2]int32) (*Coloring, error) {
	return greedy(nv, edges)
}

// GreedyFaces colors boundary triangles so that within a group no two
// faces share a vertex — the boundary-loop analogue of the edge coloring,
// needed because the boundary flux scatters to all three face vertices.
func GreedyFaces(nv int, faces [][3]int32) (*Coloring, error) {
	return greedy(nv, faces)
}

func greedy[E elem](nv int, elems []E) (*Coloring, error) {
	// Colors below 64 are a bit per vertex; the rare ones above (a hub of
	// degree > 64) spill to a lazily made per-vertex list.
	mask := make([]uint64, nv)
	var spill map[int32][]int32
	var taken []int32
	colorOf := make([]int32, len(elems))
	nc := int32(0)
	for i := range elems {
		e := elems[i]
		var held uint64
		for k := 0; k < len(e); k++ {
			if e[k] < 0 || int(e[k]) >= nv {
				return nil, fmt.Errorf("color: element %d vertex %d out of range [0,%d)", i, e[k], nv)
			}
			if e[k] == e[(k+1)%len(e)] {
				return nil, fmt.Errorf("color: element %d repeats vertex %d", i, e[k])
			}
			held |= mask[e[k]]
		}
		c := int32(bits.TrailingZeros64(^held))
		if c == 64 {
			taken = taken[:0]
			for k := 0; k < len(e); k++ {
				taken = append(taken, spill[e[k]]...)
			}
			slices.Sort(taken)
			for _, t := range taken {
				if t == c {
					c++
				}
			}
		}
		colorOf[i] = c
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
		nc = max(nc, c+1)
	}

	// Counting sort by color, stable in source order.
	start := make([]int32, nc+1)
	for _, c := range colorOf {
		start[c+1]++
	}
	for g := int32(0); g < nc; g++ {
		start[g+1] += start[g]
	}
	next := slices.Clone(start[:nc])
	order := make([]int32, len(elems))
	for i, c := range colorOf {
		order[next[c]] = int32(i)
		next[c]++
	}
	return &Coloring{Order: order, Start: start}, nil
}

// Verify checks that the coloring is a permutation of the edge list and
// that no two edges within a group share a vertex.
func Verify(c *Coloring, nv int, edges [][2]int32) error { return verify(c, nv, edges) }

// VerifyFaces checks that no two faces within a group share a vertex and
// the coloring is a permutation of the face list.
func VerifyFaces(c *Coloring, nv int, faces [][3]int32) error { return verify(c, nv, faces) }

func verify[E elem](c *Coloring, nv int, elems []E) error {
	if len(c.Order) != len(elems) {
		return fmt.Errorf("color: order length %d != element count %d", len(c.Order), len(elems))
	}
	seen := make([]bool, len(elems))
	for _, ei := range c.Order {
		if ei < 0 || int(ei) >= len(elems) {
			return fmt.Errorf("color: element index %d out of range", ei)
		}
		if seen[ei] {
			return fmt.Errorf("color: element %d appears twice", ei)
		}
		seen[ei] = true
	}
	touched := make([]int32, nv)
	for i := range touched {
		touched[i] = -1
	}
	for g := 0; g < c.NumColors(); g++ {
		for _, ei := range c.Group(g) {
			e := elems[ei]
			for k := 0; k < len(e); k++ {
				if touched[e[k]] == int32(g) {
					return fmt.Errorf("color: vertex %d touched twice in group %d", e[k], g)
				}
				touched[e[k]] = int32(g)
			}
		}
	}
	return nil
}
