package smsolver

import (
	"fmt"

	"eul3d/internal/euler"
	"eul3d/internal/mesh"
)

// layout is what the pooled engine's sweeps walk on one mesh: the smoother's
// adjacency, and for each worker the edges and the boundary faces that
// touch a vertex it owns — the vertex span it takes in every vertex loop —
// in the mesh's own order. A worker computes each of its elements once, in
// the stored orientation, and adds the result only into the ends it owns;
// an element cut by the spans is listed, and computed, by each of its
// owners. Every vertex therefore receives its additions from one worker in
// the mesh's edge order, which is the sequential operator's order: the
// pooled engine is bitwise euler.Disc.Step at any worker count, and no two
// workers ever write one slot. The paper colors edges because a vector pipe
// needs loops free of recurrences (Section 3.1); scalar workers need only
// disjoint writes, which ownership gives without reordering anything.
type layout struct {
	// Worker w's edges are edges[edgeStart[w]:edgeStart[w+1]] and its faces
	// faces[faceStart[w]:faceStart[w+1]], each ascending.
	edgeStart, edges []int32
	faceStart, faces []int32

	// CSR vertex adjacency: row i = adj[adjStart[i]:adjStart[i+1]] lists i's
	// neighbours in the order the mesh's edge list meets them, which is the
	// order the edge sweep adds them into vertex i's sum.
	adjStart, adj []int32

	owner []int32 // fill's scratch: each vertex's worker
}

// edgesOf returns worker w's edges.
func (lay *layout) edgesOf(w int) []int32 { return lay.edges[lay.edgeStart[w]:lay.edgeStart[w+1]] }

// facesOf returns worker w's boundary faces.
func (lay *layout) facesOf(w int) []int32 { return lay.faces[lay.faceStart[w]:lay.faceStart[w+1]] }

// fill (re)builds the layout of m for the workers owning the vertex spans
// own, reusing the layout's arrays where their capacity allows
// (euler.Grow). It fails, leaving the layout half-filled, on an element
// list that is not over m's vertices.
func (lay *layout) fill(m *mesh.Mesh, own []span) error {
	owner := euler.Grow(lay.owner, m.NV())
	for w, sp := range own {
		for v := sp.lo; v < sp.hi; v++ {
			owner[v] = int32(w)
		}
	}
	lay.owner = owner
	var err error
	lay.edgeStart, lay.edges, err = touching(lay.edgeStart, lay.edges, owner, len(own), m.NE(), func(e int) []int32 { return m.Edges[e][:] })
	if err != nil {
		return fmt.Errorf("edges: %w", err)
	}
	lay.faceStart, lay.faces, err = touching(lay.faceStart, lay.faces, owner, len(own), len(m.BFaces), func(f int) []int32 { return m.BFaces[f].V[:] })
	if err != nil {
		return fmt.Errorf("boundary faces: %w", err)
	}
	lay.adjacency(m)
	return nil
}

// touching lists, for each of nw workers, the indices of the n elements
// (vertex tuples verts(i)) that have a vertex v with owner[v] == w,
// ascending, at list[start[w]:start[w+1]]: an element is listed once per
// worker owning one of its vertices. The fill advances each worker's start
// to its end, i.e. to the next worker's start; shifting the table up one
// slot afterwards restores it.
func touching(start, list, owner []int32, nw, n int, verts func(int) []int32) ([]int32, []int32, error) {
	start = euler.Grow(start, nw+1)
	clear(start)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			vs := verts(i)
		vertices:
			for k, v := range vs {
				if uint(v) >= uint(len(owner)) {
					return start, list, fmt.Errorf("element %d vertex %d out of range [0,%d)", i, v, len(owner))
				}
				w := owner[v]
				for _, u := range vs[:k] {
					if owner[u] == w {
						continue vertices
					}
				}
				if pass == 0 {
					start[w+1]++
				} else {
					list[start[w]] = int32(i)
					start[w]++
				}
			}
		}
		if pass == 0 {
			for w := 0; w < nw; w++ {
				start[w+1] += start[w]
			}
			list = euler.Grow(list, int(start[nw]))
		}
	}
	copy(start[1:], start[:nw])
	start[0] = 0
	return start, list, nil
}

// adjacency fills the smoother's rows from m's edge list by counting sort.
// The fill advances each row's start to its end, i.e. to the next row's
// start; shifting the table up one slot afterwards restores it.
func (lay *layout) adjacency(m *mesh.Mesh) {
	nv, ne := m.NV(), m.NE()
	start := euler.Grow(lay.adjStart, nv+1)
	clear(start)
	for _, e := range m.Edges {
		start[e[0]+1]++
		start[e[1]+1]++
	}
	for i := 0; i < nv; i++ {
		start[i+1] += start[i]
	}
	adj := euler.Grow(lay.adj, 2*ne)
	for _, e := range m.Edges {
		i, j := e[0], e[1]
		adj[start[i]] = j
		start[i]++
		adj[start[j]] = i
		start[j]++
	}
	copy(start[1:], start[:nv])
	start[0] = 0
	lay.adjStart, lay.adj = start, adj
}
