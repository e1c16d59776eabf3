package smsolver

import (
	"fmt"

	"eul3d/internal/color"
	"eul3d/internal/euler"
	"eul3d/internal/mesh"
)

// layout is what every sweep of the pooled engine streams — the output of
// the paper's preprocessing (edge coloring, Section 3.1; edge reordering,
// Section 4.2): the mesh's color-canonical form (reorder.ColorCanonical
// builds the same thing) plus the vertex adjacency of the gather-form
// smoother. Vertex numbering is the source mesh's, so nothing is permuted
// at the []State boundary. A layout is a pure function of the mesh and its
// colorings, never of the worker count.
type layout struct {
	// view has Edges, EdgeNorm and BFaces in color-group order and shares X,
	// Tets and Vol with the source; edges and faces are the identity-run
	// colorings over it, so a worker's share of a color, Order[lo:hi], is
	// the index range itself and the kernels' m.Edges[e] loads stream.
	view         *mesh.Mesh
	edges, faces *color.Coloring

	// CSR vertex adjacency: row i = adj[adjStart[i]:adjStart[i+1]] lists i's
	// neighbours in the order the view's edge list meets them, which is the
	// order the colored edge sweep adds them into vertex i's sum.
	adjStart, adj []int32
}

// layoutResult is what the per-mesh memo holds.
type layoutResult struct {
	lay *layout
	err error
}

// faceTriples extracts the boundary faces' vertex triples for coloring.
func faceTriples(m *mesh.Mesh) [][3]int32 {
	faces := make([][3]int32, len(m.BFaces))
	for i := range m.BFaces {
		faces[i] = m.BFaces[i].V
	}
	return faces
}

// layoutFor returns the layout an engine on m runs over. With no colorings
// given it is the greedy-colored one, built once per finished mesh
// (mesh.Derived) and shared by every engine on it; a caller-provided
// coloring (verified here; a nil one of the pair selects greedy) gets a
// private layout.
func layoutFor(m *mesh.Mesh, ec, fc *color.Coloring) (*layout, error) {
	if ec == nil && fc == nil {
		r := m.Derived(func(m *mesh.Mesh) any {
			lay, err := buildLayout(m, nil, nil)
			return layoutResult{lay, err}
		}).(layoutResult)
		return r.lay, r.err
	}
	if ec != nil {
		if err := color.Verify(ec, m.NV(), m.Edges); err != nil {
			return nil, fmt.Errorf("edge coloring: %w", err)
		}
	}
	if fc != nil {
		if err := color.VerifyFaces(fc, m.NV(), faceTriples(m)); err != nil {
			return nil, fmt.Errorf("face coloring: %w", err)
		}
	}
	return buildLayout(m, ec, fc)
}

func buildLayout(src *mesh.Mesh, ec, fc *color.Coloring) (*layout, error) {
	var err error
	if ec == nil {
		if ec, err = color.Greedy(src.NV(), src.Edges); err != nil {
			return nil, fmt.Errorf("edge coloring: %w", err)
		}
	}
	if fc == nil {
		if fc, err = color.GreedyFaces(src.NV(), faceTriples(src)); err != nil {
			return nil, fmt.Errorf("face coloring: %w", err)
		}
	}
	lay := &layout{view: &mesh.Mesh{}}
	lay.permute(src, ec, fc)
	return lay, nil
}

// permute (re)fills the layout from src in the order of the colorings,
// reusing the layout's arrays where their capacity allows (euler.Grow).
func (lay *layout) permute(src *mesh.Mesh, ec, fc *color.Coloring) {
	v := lay.view
	nv, ne := src.NV(), src.NE()
	v.X, v.Tets, v.Vol = src.X, src.Tets, src.Vol
	v.Edges = euler.Grow(v.Edges, ne)
	v.EdgeNorm = euler.Grow(v.EdgeNorm, ne)
	v.BFaces = euler.Grow(v.BFaces, len(src.BFaces))
	for at, ei := range ec.Order {
		v.Edges[at] = src.Edges[ei]
		v.EdgeNorm[at] = src.EdgeNorm[ei]
	}
	for at, fi := range fc.Order {
		v.BFaces[at] = src.BFaces[fi]
	}
	lay.edges, lay.faces = color.IdentityRuns(ec.Start), color.IdentityRuns(fc.Start)

	// Adjacency by counting sort over the view's edges. The fill advances
	// each row's start to its end, i.e. to the next row's start; shifting
	// the table up one slot afterwards restores it.
	start := euler.Grow(lay.adjStart, nv+1)
	clear(start)
	for _, e := range v.Edges {
		start[e[0]+1]++
		start[e[1]+1]++
	}
	for i := 0; i < nv; i++ {
		start[i+1] += start[i]
	}
	adj := euler.Grow(lay.adj, 2*ne)
	for _, e := range v.Edges {
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
