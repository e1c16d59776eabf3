package mesh

import (
	"fmt"
	"runtime"
	"sync"

	"eul3d/internal/geom"
)

// tetEdges lists the six edges of a tetrahedron as index quadruples
// (a, b, c, d): (a,b) is the edge and (a,b,c,d) is an even permutation of
// the positively-oriented tet, which makes the assembled median-dual face
// normal point from a to b.
var tetEdges = [6][4]int{
	{0, 1, 2, 3},
	{0, 2, 3, 1},
	{0, 3, 1, 2},
	{1, 2, 0, 3},
	{1, 3, 2, 0},
	{2, 3, 0, 1},
}

// finishBlock is how many tets' geometry a pipeline worker computes at a
// time: a block's records are 152 KB, so the four blocks in flight hold
// 0.6 MB whatever the mesh, and the two channel operations a block costs
// are lost in its thousand tets.
const finishBlock = 1024

// finishInline is the tet count below which Finish computes every tet's
// geometry on the caller, as the pipeline's start and join would cost
// more than they save.
const finishInline = 16 * finishBlock

// finishWorkers bounds the pipeline's workers: the caller's ordered share
// is about three quarters of the geometry's, so two workers keep it busy
// and more would only hold more blocks.
const finishWorkers = 2

// tetGeom is one tet's share of the dual metrics: its volume and, for each
// tetEdges edge, the median-dual normal contribution directed from the
// edge's lower vertex to its higher one.
type tetGeom struct {
	vol float64
	n   [6]geom.Vec3
}

// Finish builds the edge list, median-dual edge normals, dual control
// volumes and boundary-face normals from the vertex coordinates, tetrahedra
// and boundary-face vertex triples already stored in m. It must be called
// once after the mesh topology is assembled and before the mesh is used by
// a solver. It returns an error if a tetrahedron or a boundary face
// references a vertex out of range, or if a tetrahedron has non-positive
// volume (the lowest-numbered such tet).
//
// Edges are numbered in first-encounter order over the tetrahedra, and
// every edge normal and control volume accumulates its tets' contributions
// in tet order. The edge index is a chain per lower endpoint threaded
// through the edge list itself (head[lo] -> next[id] -> ...): a lookup
// walks the handful of edges that vertex owns, which its neighbouring tets
// created moments ago.
//
// On a mesh of finishInline tets or more, and with more than one
// processor, the per-tet geometry — the only part that does not depend on
// the tets before it — is computed by worker goroutines block by block,
// ahead of the caller, which numbers and accumulates each block in tet
// order as it arrives (pipeline). Either way every value is the one the
// inline loop computes, added in the same order, so the mesh is bitwise
// the same at any GOMAXPROCS.
func (m *Mesh) Finish() error {
	nv := m.NV()
	for ti, tet := range m.Tets {
		for _, v := range tet {
			if uint(v) >= uint(nv) {
				return fmt.Errorf("mesh: tet %d references vertex out of range", ti)
			}
		}
	}
	for fi, f := range m.BFaces {
		for _, v := range f.V {
			if uint(v) >= uint(nv) {
				return fmt.Errorf("mesh: boundary face %d references vertex out of range", fi)
			}
		}
	}
	m.Vol = make([]float64, nv)
	// Euler's formula gives V + T + Fb/2 - 1 edges for a triangulated ball;
	// other topologies only make the hint inexact.
	hint := nv + m.NT() + len(m.BFaces)/2
	m.Edges = make([][2]int32, 0, hint)
	m.EdgeNorm = make([]geom.Vec3, 0, hint)
	head := make([]int32, nv)
	for i := range head {
		head[i] = -1
	}
	next := make([]int32, 0, hint)

	nw := min(runtime.GOMAXPROCS(0), finishWorkers)
	var err error
	if m.NT() < finishInline || nw < 2 {
		_, err = m.assemble(head, next, 0, m.Tets, nil)
	} else {
		err = m.pipeline(head, next, nw)
	}
	if err != nil {
		return err
	}

	// Boundary-face normals from their (outward-ordered) vertex triples.
	for i := range m.BFaces {
		f := &m.BFaces[i]
		f.Normal = geom.TriAreaNormal(m.X[f.V[0]], m.X[f.V[1]], m.X[f.V[2]])
	}
	return nil
}

// tetGeometry computes tet's volume and its six edge-normal contributions
// into g. The pipeline's workers run it ahead of assemble, which computes
// the same values with the same expressions when it runs inline: calling
// tetGeometry there instead costs the inline loop 8-10 % (measured on the
// 64x32x20 channel), so the statement is written twice, and
// TestFinishMatchesMapOracle holds the copies to each other bit for bit.
func (m *Mesh) tetGeometry(tet [4]int32, g *tetGeom) {
	xa, xb, xc, xd := m.X[tet[0]], m.X[tet[1]], m.X[tet[2]], m.X[tet[3]]
	g.vol = geom.TetVolume(xa, xb, xc, xd)
	gt := geom.TetCentroid(xa, xb, xc, xd)
	for k, e := range &tetEdges {
		a, b, c, d := tet[e[0]], tet[e[1]], tet[e[2]], tet[e[3]]
		pa, pb, pc, pd := m.X[a], m.X[b], m.X[c], m.X[d]
		mid := pa.Add(pb).Scale(0.5)
		g1 := geom.TriCentroid(pa, pb, pc)
		g2 := geom.TriCentroid(pa, pb, pd)
		n := geom.TriAreaNormal(mid, g1, gt).Add(geom.TriAreaNormal(mid, gt, g2))
		if a > b { // stored edge runs b -> a; flip contribution
			n = n.Scale(-1)
		}
		g.n[k] = n
	}
}

// assemble adds tets, the mesh's tets t0, t0+1, ..., in order into the
// control volumes and the edge normals, failing at the first tet of
// non-positive volume. It takes each tet's geometry from pre, computed
// ahead by tetGeometry, or computes it here when pre is nil. It numbers
// each edge at its first tet through the edge index (head, next) and
// returns next as grown: head[lo] is the last edge numbered with lower
// vertex lo and next[id] the one numbered before edge id with the same
// lower vertex, -1 ending a chain.
func (m *Mesh) assemble(head, next []int32, t0 int, tets [][4]int32, pre []tetGeom) ([]int32, error) {
	for i, tet := range tets {
		var vol float64
		var gt geom.Vec3
		if pre == nil {
			xa, xb, xc, xd := m.X[tet[0]], m.X[tet[1]], m.X[tet[2]], m.X[tet[3]]
			vol = geom.TetVolume(xa, xb, xc, xd)
			gt = geom.TetCentroid(xa, xb, xc, xd)
		} else {
			vol = pre[i].vol
		}
		if vol <= 0 {
			return next, fmt.Errorf("mesh: tet %d has non-positive volume %g", t0+i, vol)
		}
		q := vol / 4
		for _, v := range tet {
			m.Vol[v] += q
		}
		for k, e := range &tetEdges {
			a, b := tet[e[0]], tet[e[1]]
			var n geom.Vec3
			if pre != nil {
				n = pre[i].n[k]
			} else {
				pa, pb, pc, pd := m.X[a], m.X[b], m.X[tet[e[2]]], m.X[tet[e[3]]]
				mid := pa.Add(pb).Scale(0.5)
				g1 := geom.TriCentroid(pa, pb, pc)
				g2 := geom.TriCentroid(pa, pb, pd)
				n = geom.TriAreaNormal(mid, g1, gt).Add(geom.TriAreaNormal(mid, gt, g2))
			}
			lo, hi := a, b
			if a > b { // stored edge runs b -> a; flip contribution
				lo, hi = b, a
				if pre == nil {
					n = n.Scale(-1)
				}
			}
			id := head[lo]
			for id >= 0 && m.Edges[id][1] != hi {
				id = next[id]
			}
			if id < 0 {
				id = int32(len(m.Edges))
				m.Edges = append(m.Edges, [2]int32{lo, hi})
				m.EdgeNorm = append(m.EdgeNorm, geom.Vec3{})
				next = append(next, head[lo])
				head[lo] = id
			}
			m.EdgeNorm[id] = m.EdgeNorm[id].Add(n)
		}
	}
	return next, nil
}

// pipeline runs Finish's tet loop on nw workers and the caller. Worker w
// computes the geometry of blocks w, w+nw, w+2nw, ... into its own two
// buffers, which travel to the caller through full[w] and back through
// empty[w]; the caller takes block k from full[k%nw], so it assembles the
// blocks in order, and a worker is never more than two blocks ahead of it.
// On an error the caller stops the workers and waits for them, so none
// outlives Finish.
func (m *Mesh) pipeline(head, next []int32, nw int) error {
	nt := m.NT()
	nb := (nt + finishBlock - 1) / finishBlock
	full := make([]chan []tetGeom, nw)
	empty := make([]chan []tetGeom, nw)
	done := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(done)
		wg.Wait()
	}()
	for w := range nw {
		// Two slots each, one per buffer of the worker: no send blocks.
		full[w] = make(chan []tetGeom, 2)
		empty[w] = make(chan []tetGeom, 2)
		for range 2 {
			empty[w] <- make([]tetGeom, finishBlock)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := w; k < nb; k += nw {
				var buf []tetGeom
				select {
				case buf = <-empty[w]:
				case <-done:
					return
				}
				for i, tet := range m.Tets[k*finishBlock : min((k+1)*finishBlock, nt)] {
					m.tetGeometry(tet, &buf[i])
				}
				full[w] <- buf
			}
		}()
	}
	for k := range nb {
		buf := <-full[k%nw]
		t0 := k * finishBlock
		var err error
		if next, err = m.assemble(head, next, t0, m.Tets[t0:min(t0+finishBlock, nt)], buf); err != nil {
			return err
		}
		empty[k%nw] <- buf
	}
	return nil
}
