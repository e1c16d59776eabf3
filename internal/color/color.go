// Package color implements the edge-coloring preprocessing step used by
// EUL3D on vector/parallel shared-memory machines. The edge loop is divided
// into groups ("colors") such that within a group no two edges touch the
// same vertex, so each group is free of data recurrences and can be
// vectorized and further chunked across processors (Cray autotasking).
package color

import "fmt"

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

// Greedy colors the edges of a mesh with nv vertices greedily in a single
// sweep: each edge takes the lowest color not already incident on either
// endpoint. By Vizing-type arguments the number of colors is bounded by
// roughly twice the maximum vertex degree; on EUL3D-style tetrahedral
// meshes it lands in the 20–40 range the paper reports ("the typical number
// of groups is ... say 20 to 30"). It is the block coloring with runs of one
// edge (Blocked), the form a vector pipe needs.
func Greedy(nv int, edges [][2]int32) (*Coloring, error) {
	return unitColoring(nv, edges)
}

// GreedyFaces colors boundary triangles so that within a group no two
// faces share a vertex — the boundary-loop analogue of the edge coloring,
// needed because the boundary flux scatters to all three face vertices.
func GreedyFaces(nv int, faces [][3]int32) (*Coloring, error) {
	return unitColoring(nv, faces)
}

func unitColoring[E Elem](nv int, elems []E) (*Coloring, error) {
	bl, err := Blocked(nv, elems, 1)
	if err != nil {
		return nil, err
	}
	return &Coloring{Order: bl.Order, Start: bl.Start}, nil // not &bl.Coloring: that would keep the run table and scratch alive
}

// Verify checks that the coloring is a permutation of the edge list and
// that no two edges within a group share a vertex.
func Verify(c *Coloring, nv int, edges [][2]int32) error { return verify(c, nv, edges) }

// VerifyFaces checks that no two faces within a group share a vertex and
// the coloring is a permutation of the face list.
func VerifyFaces(c *Coloring, nv int, faces [][3]int32) error { return verify(c, nv, faces) }

func verify[E Elem](c *Coloring, nv int, elems []E) error {
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
