package smsolver

import (
	"fmt"

	"eul3d/internal/color"
	"eul3d/internal/euler"
	"eul3d/internal/mesh"
)

// layout is what every sweep of the pooled engine streams: the mesh with
// its edge and boundary-face lists laid out group by group of a block
// coloring (color.Blocks), plus the vertex adjacency of the gather-form
// smoother. The paper colors single edges (Section 3.1) because a vector
// pipe needs every element of a loop free of recurrences; a cache machine
// with scalar workers needs only that two workers never hold the same
// vertex at once, and otherwise wants an edge next to the edges that share
// its vertices (Section 4.2). So the source lists — mesh.Finish numbers
// edges in first-encounter order over the tetrahedra, which is already
// local — are cut into runs, the runs are grouped so that no two runs of a
// group share a vertex, and a worker's share of a group is whole runs in
// their source order. Vertex numbering is the source mesh's, so nothing is
// permuted at the []State boundary. A layout is a pure function of the
// mesh, never of the worker count.
type layout struct {
	// view has Edges, EdgeNorm and BFaces in group order and shares X, Tets
	// and Vol with the source. edges and faces describe the view itself —
	// their Order is the identity — so a worker's share, Order[lo:hi], is
	// the index range and the kernels' m.Edges[e] loads stream.
	view         *mesh.Mesh
	edges, faces color.Blocks
	tris         [][3]int32 // the boundary faces' vertex triples (coloring input)

	// CSR vertex adjacency: row i = adj[adjStart[i]:adjStart[i+1]] lists i's
	// neighbours in the order the view's edge list meets them, which is the
	// order the edge sweep adds them into vertex i's sum.
	adjStart, adj []int32

	// inOrder marks the sequential engines' layout (fillInOrder), which one
	// worker walks: each list is one run.
	inOrder bool
}

// The run length is a rule over the list, not a knob: a list of n elements
// starts from runs of clamp(n/runsWanted, minRun, maxRun) — about 160 runs,
// enough for every group to split evenly over balanceWays workers, of at
// most 2048 edges, whose ~700 vertices stay cache-resident while the run
// is walked (EXPERIMENTS.md, "Run length"). The result is then checked,
// because the rule assumes a list that is local to begin with: a mesh whose
// tetrahedra arrive in arbitrary order has runs that touch ~2B scattered
// vertices and conflict with everything. More than maxGroups groups (a
// pass joins once per group, and a vertex of a tetrahedral mesh has ~14
// edges, so its per-edge coloring never needs fewer than that: a block
// coloring that needs more buys nothing), or groups too lumpy for
// balanceWays workers, halve the run length and recolor, down to runs of
// one — the per-edge coloring, which always balances.
const (
	runsWanted  = 160
	minRun      = 64
	maxRun      = 2048
	maxGroups   = 14
	balanceWays = 8
)

// colorBlocks fills bl with the block coloring of elems the layout uses.
func colorBlocks[E color.Elem](bl *color.Blocks, nv int, elems []E) error {
	for b := max(minRun, min(len(elems)/runsWanted, maxRun)); b > 1; b /= 2 {
		if ok, err := color.BlockedInto(bl, nv, elems, b, maxGroups); err != nil {
			return err
		} else if ok && balanced(bl) {
			return nil
		}
	}
	_, err := color.BlockedInto(bl, nv, elems, 1, 0)
	return err
}

// balanced reports whether balanceWays workers — fewer on a list too short
// to be worth waking that many — taking whole runs would finish a pass over
// bl within twice the time they would need if they could cut anywhere: the
// sum over the groups of the largest share, against an even share of the
// list.
func balanced(bl *color.Blocks) bool {
	var share [balanceWays]span
	ways := workersFor(len(bl.Order), balanceWays)
	longest := 0
	for g := 0; g < bl.NumColors(); g++ {
		most := 0
		for _, sp := range share[:cutRuns(bl.GroupRuns(g), share[:ways])] {
			most = max(most, sp.hi-sp.lo)
		}
		longest += most
	}
	return longest <= 2*((len(bl.Order)+ways-1)/ways)
}

// layoutResult is what the per-mesh memo holds.
type layoutResult struct {
	lay *layout
	err error
}

// layoutFor returns the block-colored layout an engine on m runs over,
// built once per finished mesh (mesh.Derived) and shared by every engine on
// it.
func layoutFor(m *mesh.Mesh) (*layout, error) {
	r := m.Derived(func(m *mesh.Mesh) any {
		lay, err := buildLayout(m)
		// Shared and never refilled: keep only what the sweeps read.
		lay.tris = nil
		lay.edges.DropScratch()
		lay.faces.DropScratch()
		return layoutResult{lay, err}
	}).(layoutResult)
	return r.lay, r.err
}

func buildLayout(src *mesh.Mesh) (*layout, error) {
	lay := &layout{view: &mesh.Mesh{}}
	return lay, lay.fill(src)
}

// fill (re)builds the block-colored layout over src, reusing the layout's
// arrays where their capacity allows (euler.Grow). On error the layout is
// left half-filled.
func (lay *layout) fill(src *mesh.Mesh) error {
	nv := src.NV()
	lay.tris = euler.Grow(lay.tris, len(src.BFaces))
	for i := range src.BFaces {
		lay.tris[i] = src.BFaces[i].V
	}
	if err := colorBlocks(&lay.edges, nv, src.Edges); err != nil {
		return fmt.Errorf("edge coloring: %w", err)
	}
	if err := colorBlocks(&lay.faces, nv, lay.tris); err != nil {
		return fmt.Errorf("face coloring: %w", err)
	}
	lay.permute(src)
	return nil
}

// inOrder returns the one-worker layout over m (fillInOrder), private to
// the engine that asks.
func inOrder(m *mesh.Mesh) *layout {
	lay := &layout{}
	lay.fillInOrder(m)
	return lay
}

// fillInOrder (re)builds a sequential engine's layout over src: the view
// is src itself and each list one group holding one run in src's order, so
// a sweep accumulates every vertex in the reference operator's order.
func (lay *layout) fillInOrder(src *mesh.Mesh) {
	lay.view, lay.inOrder = src, true
	oneRun(&lay.edges, src.NE())
	oneRun(&lay.faces, len(src.BFaces))
	lay.adjacency()
}

// oneRun fills bl with one group holding one run of n elements.
func oneRun(bl *color.Blocks, n int) {
	bl.Order = euler.Grow(bl.Order, n)
	for i := range bl.Order {
		bl.Order[i] = int32(i)
	}
	bl.Start, bl.Run = append(bl.Start[:0], 0, int32(n)), append(bl.Run[:0], 0, int32(n))
}

// permute fills the view and the adjacency from src in the order of
// lay.edges and lay.faces, block colorings of src's lists; the blocks then
// describe the view, under the identity order.
func (lay *layout) permute(src *mesh.Mesh) {
	ne := src.NE()
	v := lay.view
	v.X, v.Tets, v.Vol = src.X, src.Tets, src.Vol
	v.Edges = euler.Grow(v.Edges, ne)
	v.EdgeNorm = euler.Grow(v.EdgeNorm, ne)
	v.BFaces = euler.Grow(v.BFaces, len(src.BFaces))
	for at, ei := range lay.edges.Order {
		v.Edges[at] = src.Edges[ei]
		v.EdgeNorm[at] = src.EdgeNorm[ei]
		lay.edges.Order[at] = int32(at)
	}
	for at, fi := range lay.faces.Order {
		v.BFaces[at] = src.BFaces[fi]
		lay.faces.Order[at] = int32(at)
	}
	lay.adjacency()
}

// adjacency fills the smoother's rows from the view's edge list by counting
// sort. The fill advances each row's start to its end, i.e. to the next
// row's start; shifting the table up one slot afterwards restores it.
func (lay *layout) adjacency() {
	v := lay.view
	nv, ne := v.NV(), v.NE()
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
