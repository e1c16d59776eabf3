package smsolver

import (
	"fmt"
	"sync"

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
	pass  listing // fill's current pass over an element list
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
	lay.edgeStart, lay.edges, err = lay.pass.touching(lay.edgeStart, lay.edges, owner, len(own), m, false)
	if err != nil {
		return fmt.Errorf("edges: %w", err)
	}
	lay.faceStart, lay.faces, err = lay.pass.touching(lay.faceStart, lay.faces, owner, len(own), m, true)
	if err != nil {
		return fmt.Errorf("boundary faces: %w", err)
	}
	lay.pass.m = nil // the layout outlives m when the engine is rebuilt
	lay.adjacency(m)
	return nil
}

// fillChunk is the fewest elements a goroutine of a layout fill takes: a
// list shorter than two chunks is listed by the caller alone, so the
// small meshes of coarse levels and adaptive epochs are laid out without
// starting a goroutine, and a rebuild inside capacity allocates nothing.
const fillChunk = 1 << 14

// listing is one fill of a per-worker element list by counting sort over
// element chunks: every chunk counts its elements per worker, the counts
// become each chunk's cursors into each worker's piece of the list, and
// every chunk then writes its elements at its cursors. A worker's list is
// its chunks' pieces in chunk order, so it is ascending, the list one
// serial pass writes. The chunks run on the caller and up to nw-1
// goroutines.
type listing struct {
	m      *mesh.Mesh
	faces  bool // list m's boundary faces, else its edges
	owner  []int32
	nw, nc int
	fill   bool // second pass: write the elements, else count them

	// cnt[c*(nw+1)+w] is chunk c's count of worker w's elements, then its
	// cursor into the list; cnt[c*(nw+1)+nw] is 1 + the first element of
	// chunk c with a vertex out of range, 0 if none.
	cnt  []int32
	list []int32

	wg sync.WaitGroup
}

// touching lists, for each of nw workers, the indices of m's edges (or
// boundary faces) that have a vertex v with owner[v] == w, ascending, at
// list[start[w]:start[w+1]]: an element is listed once per worker owning
// one of its vertices.
func (l *listing) touching(start, list, owner []int32, nw int, m *mesh.Mesh, faces bool) ([]int32, []int32, error) {
	l.m, l.faces, l.owner, l.nw = m, faces, owner, nw
	l.nc = max(1, min(nw, l.len()/fillChunk))
	l.cnt = euler.Grow(l.cnt, l.nc*(nw+1))
	clear(l.cnt)
	l.fill = false
	l.run()
	for c := 0; c < l.nc; c++ {
		if bad := l.cnt[c*(nw+1)+nw]; bad > 0 {
			i := int(bad - 1)
			for _, v := range l.verts(i) {
				if uint(v) >= uint(len(owner)) {
					return start, list, fmt.Errorf("element %d vertex %d out of range [0,%d)", i, v, len(owner))
				}
			}
		}
	}
	start = euler.Grow(start, nw+1)
	at := int32(0)
	for w := 0; w < nw; w++ {
		start[w] = at
		for c := 0; c < l.nc; c++ {
			k := c*(nw+1) + w
			at, l.cnt[k] = at+l.cnt[k], at
		}
	}
	start[nw] = at
	l.list = euler.Grow(list, int(at))
	l.fill = true
	l.run()
	return start, l.list, nil
}

// len returns the number of elements listed.
func (l *listing) len() int {
	if l.faces {
		return len(l.m.BFaces)
	}
	return l.m.NE()
}

// verts returns element i's vertices.
func (l *listing) verts(i int) []int32 {
	if l.faces {
		return l.m.BFaces[i].V[:]
	}
	return l.m.Edges[i][:]
}

// run runs the current pass over every chunk, chunks 1.. on goroutines and
// chunk 0 on the caller.
func (l *listing) run() {
	if l.nc == 1 {
		l.chunk(0)
		return
	}
	l.wg.Add(l.nc - 1)
	for c := 1; c < l.nc; c++ {
		go func() {
			defer l.wg.Done()
			l.chunk(c)
		}()
	}
	l.chunk(0)
	l.wg.Wait()
}

// chunk runs the current pass over chunk c's elements, stopping at the
// first one with a vertex out of range.
func (l *listing) chunk(c int) {
	cnt := l.cnt[c*(l.nw+1) : (c+1)*(l.nw+1)]
	n := l.len()
	lo, hi := c*n/l.nc, (c+1)*n/l.nc
	if l.faces {
		faces := l.m.BFaces
		for i := lo; i < hi; i++ {
			if !l.put(faces[i].V[:], i, cnt) {
				return
			}
		}
		return
	}
	edges := l.m.Edges
	for i := lo; i < hi; i++ {
		if !l.put(edges[i][:], i, cnt) {
			return
		}
	}
}

// put counts or writes element i, whose vertices are vs, once under each
// worker owning one of them, at the chunk's counts cnt. It reports false,
// recording i in cnt, if a vertex is out of range.
func (l *listing) put(vs []int32, i int, cnt []int32) bool {
	owner := l.owner
vertices:
	for k, v := range vs {
		if uint(v) >= uint(len(owner)) {
			cnt[l.nw] = int32(i) + 1
			return false
		}
		w := owner[v]
		for _, u := range vs[:k] {
			if owner[u] == w {
				continue vertices
			}
		}
		if l.fill {
			l.list[cnt[w]] = int32(i)
		}
		cnt[w]++
	}
	return true
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
