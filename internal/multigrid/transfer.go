// Package multigrid implements the unstructured FAS multigrid solver of
// EUL3D: a sequence of completely unrelated (non-nested) tetrahedral
// meshes, inter-grid transfers defined by four interpolation addresses and
// four weights per vertex computed in a preprocessing phase with a
// graph-traversal (walk) search, and V- and W-cycle drivers built on the
// single-grid five-stage Runge-Kutta scheme.
package multigrid

import (
	"fmt"
	"math"
	"sync"

	"eul3d/internal/euler"
	"eul3d/internal/geom"
	"eul3d/internal/mesh"
)

// TransferOp interpolates vertex data from a source mesh onto the vertices
// of a target mesh. For each target vertex it stores the four vertices of
// the source tetrahedron containing it and the corresponding barycentric
// weights — the "four interpolation addresses and four interpolation
// weights for each vertex" of Section 2.3.
type TransferOp struct {
	Addr [][4]int32
	Wt   [][4]float64
}

// tetAdjacency returns, for each tet, its up to four face-neighbours
// (-1 where the face is on the boundary). Neighbour k is across the face
// opposite vertex k.
//
// A face waits for its second tet in a chain per lowest vertex, threaded
// through the list of open faces (head[lo] -> open[id].next -> ...), the
// way mesh.Finish matches edges: a lookup walks the few faces of that
// vertex still open, which neighbouring tets left moments ago. A matched
// face leaves its chain, so a face met a third time opens afresh.
func tetAdjacency(m *mesh.Mesh) [][4]int32 {
	type openFace struct {
		mid, hi int32 // the face's two higher vertices
		tet     int32
		face    int32
		next    int32
	}
	adj := make([][4]int32, m.NT())
	for i := range adj {
		adj[i] = [4]int32{-1, -1, -1, -1}
	}
	head := make([]int32, m.NV())
	for i := range head {
		head[i] = -1
	}
	open := make([]openFace, 0, 2*m.NT()+len(m.BFaces)/2) // every distinct face of a manifold mesh
	for ti, tet := range m.Tets {
		for k := 0; k < 4; k++ {
			lo, mid, hi := tet[(k+1)&3], tet[(k+2)&3], tet[(k+3)&3]
			if lo > mid {
				lo, mid = mid, lo
			}
			if mid > hi {
				mid, hi = hi, mid
			}
			if lo > mid {
				lo, mid = mid, lo
			}
			link := &head[lo]
			for *link >= 0 && (open[*link].mid != mid || open[*link].hi != hi) {
				link = &open[*link].next
			}
			if id := *link; id >= 0 {
				o := &open[id]
				adj[ti][k] = o.tet
				adj[o.tet][o.face] = int32(ti)
				*link = o.next
			} else {
				open = append(open, openFace{mid: mid, hi: hi, tet: int32(ti), face: int32(k), next: head[lo]})
				head[lo] = int32(len(open) - 1)
			}
		}
	}
	return adj
}

// walkTol is the barycentric slack accepted as containment during the walk
// search: non-nested grids only overlap approximately near curved walls.
const walkTol = 1e-9

// BuildTransfer locates every vertex of target inside source and returns
// the interpolation operator. The search walks the tet adjacency graph of
// the source mesh: from a starting guess, it repeatedly crosses the face
// whose barycentric coordinate is most negative, which converges in O(n^(1/3))
// steps on well-shaped meshes. Points slightly outside the source mesh
// (non-nested boundaries) snap to the best tet encountered, with clamped
// and renormalized weights. The cost of this preprocessing is comparable to
// one or two flow solution cycles, as the paper reports.
func BuildTransfer(target, source *mesh.Mesh) (*TransferOp, error) {
	if source.NT() == 0 {
		return nil, fmt.Errorf("multigrid: source mesh has no tets")
	}
	adj := tetAdjacency(source)
	op := &TransferOp{
		Addr: make([][4]int32, target.NV()),
		Wt:   make([][4]float64, target.NV()),
	}

	bary := func(t int32, p geom.Vec3) ([4]float64, bool) {
		tet := source.Tets[t]
		return geom.Barycentric(p, source.X[tet[0]], source.X[tet[1]], source.X[tet[2]], source.X[tet[3]])
	}

	start := int32(0)
	maxSteps := 4 * source.NT() // generous cycle guard
	for v := 0; v < target.NV(); v++ {
		p := target.X[v]
		cur := start
		bestTet := cur
		bestMin := math.Inf(-1)
		var bestL [4]float64
		found := false
		for step := 0; step < maxSteps; step++ {
			l, ok := bary(cur, p)
			if !ok {
				break // degenerate tet; fall through to brute force
			}
			minK, minV := 0, l[0]
			for k := 1; k < 4; k++ {
				if l[k] < minV {
					minK, minV = k, l[k]
				}
			}
			if minV > bestMin {
				bestMin, bestTet, bestL = minV, cur, l
			}
			if minV >= -walkTol {
				found = true
				break
			}
			next := adj[cur][minK]
			if next < 0 {
				break // walked off the mesh: p is outside; snap to best
			}
			cur = next
		}
		if !found && bestMin == math.Inf(-1) {
			// Walk never evaluated a valid tet: brute-force fallback.
			for t := int32(0); int(t) < source.NT(); t++ {
				if l, ok := bary(t, p); ok {
					minV := math.Min(math.Min(l[0], l[1]), math.Min(l[2], l[3]))
					if minV > bestMin {
						bestMin, bestTet, bestL = minV, t, l
					}
				}
			}
			if bestMin == math.Inf(-1) {
				return nil, fmt.Errorf("multigrid: all source tets degenerate")
			}
		}
		// Clamp and renormalize weights: exact inside the mesh, a nearest
		// projection for slightly-outside points.
		sum := 0.0
		for k := 0; k < 4; k++ {
			bestL[k] = geom.Clamp(bestL[k], 0, 1)
			sum += bestL[k]
		}
		for k := 0; k < 4; k++ {
			bestL[k] /= sum
		}
		tet := source.Tets[bestTet]
		op.Addr[v] = tet
		op.Wt[v] = bestL
		start = bestTet // next target vertex is usually nearby
	}
	return op, nil
}

// Transfers builds the transfer operators of every level pair of meshes
// (finest first): restrict[l] locates level l's vertices in level l-1,
// prolong[l] level l-1's vertices in level l, both nil at l = 0. Each of
// the 2(len(meshes)-1) operators is a BuildTransfer of two meshes nothing
// writes, so they are built side by side, one goroutine each, and every
// operator is the one the pairwise call returns, bit for bit. The error is
// the first failure in level order (restrict before prolong), whichever
// build finished first.
func Transfers(meshes []*mesh.Mesh) (restrict, prolong []*TransferOp, err error) {
	n := len(meshes)
	restrict, prolong = make([]*TransferOp, n), make([]*TransferOp, n)
	errs := make([][2]error, n)
	var wg sync.WaitGroup
	for l := 1; l < n; l++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			restrict[l], errs[l][0] = BuildTransfer(meshes[l], meshes[l-1])
		}()
		go func() {
			defer wg.Done()
			prolong[l], errs[l][1] = BuildTransfer(meshes[l-1], meshes[l])
		}()
	}
	wg.Wait()
	for l, e := range errs {
		if e[0] != nil {
			return nil, nil, fmt.Errorf("restrict %d->%d: %w", l-1, l, e[0])
		}
		if e[1] != nil {
			return nil, nil, fmt.Errorf("prolong %d->%d: %w", l, l-1, e[1])
		}
	}
	return restrict, prolong, nil
}

// Interp evaluates dst[v] = sum_k Wt[v][k] * src[Addr[v][k]] for every
// target vertex. Used to restrict flow variables to a coarse grid and to
// prolong corrections to a fine grid.
func (op *TransferOp) Interp(src, dst []euler.State) {
	op.InterpRange(src, dst, 0, len(op.Addr))
}

// InterpRange evaluates Interp for target vertices [lo,hi) only. Each
// target vertex is written exactly once and reads are unrestricted, so
// disjoint ranges can run concurrently and any chunking reproduces the
// full Interp bitwise.
func (op *TransferOp) InterpRange(src, dst []euler.State, lo, hi int) {
	for v := lo; v < hi; v++ {
		a, w := op.Addr[v], op.Wt[v]
		var s euler.State
		for k := 0; k < 4; k++ {
			sv := src[a[k]]
			f := w[k]
			for c := 0; c < euler.NVar; c++ {
				s[c] += f * sv[c]
			}
		}
		dst[v] = s
	}
}

// ScatterTranspose applies the transpose of Interp: each source-of-Interp
// vertex value src[v] (v indexing the op's *target* mesh) is distributed
// onto dst at the four interpolation addresses with the same weights. With
// op built fine-vertices-in-coarse-mesh this is the conservative residual
// restriction: sum(dst) == sum(src). dst is zeroed first.
func (op *TransferOp) ScatterTranspose(src, dst []euler.State) {
	for i := range dst {
		dst[i] = euler.State{}
	}
	for v := range op.Addr {
		a, w := op.Addr[v], op.Wt[v]
		sv := src[v]
		for k := 0; k < 4; k++ {
			f := w[k]
			d := &dst[a[k]]
			for c := 0; c < euler.NVar; c++ {
				d[c] += f * sv[c]
			}
		}
	}
}

// ScatterPlan is the destination-grouped form of ScatterTranspose: the
// operator's 4*len(Addr) scatter entries regrouped by the destination
// vertex they accumulate into — in effect a coloring of the transfer
// entries on their destination address, stored as a CSR table with one
// row per destination. Row d holds the entries in exactly the (v, k)
// order the serial scatter visits them, so accumulating a row
// sequentially reproduces the serial floating-point sum for that
// destination bitwise, while distinct rows write distinct destinations
// and may be processed concurrently: any chunking of [0, NDst) by rows
// yields disjoint writes and a result bitwise identical to
// ScatterTranspose.
type ScatterPlan struct {
	Start []int32   // row boundaries, len = ndst+1
	Src   []int32   // source (transfer-target) vertex of each entry
	Wt    []float64 // interpolation weight of each entry
}

// Plan builds the destination-grouped scatter table for op onto a
// destination array of ndst vertices (the op's source-mesh vertex count).
// Entries within a row keep the serial scatter's (v, k) visit order: the
// counting sort below scans v ascending with k ascending inside, which is
// precisely that order.
func (op *TransferOp) Plan(ndst int) *ScatterPlan {
	pl := &ScatterPlan{
		Start: make([]int32, ndst+1),
		Src:   make([]int32, 4*len(op.Addr)),
		Wt:    make([]float64, 4*len(op.Addr)),
	}
	for v := range op.Addr {
		for k := 0; k < 4; k++ {
			pl.Start[op.Addr[v][k]+1]++
		}
	}
	for d := 0; d < ndst; d++ {
		pl.Start[d+1] += pl.Start[d]
	}
	fill := make([]int32, ndst)
	for v := range op.Addr {
		a, w := op.Addr[v], op.Wt[v]
		for k := 0; k < 4; k++ {
			d := a[k]
			at := pl.Start[d] + fill[d]
			pl.Src[at] = int32(v)
			pl.Wt[at] = w[k]
			fill[d]++
		}
	}
	return pl
}

// NDst returns the number of destination rows.
func (pl *ScatterPlan) NDst() int { return len(pl.Start) - 1 }

// GatherRange accumulates destination rows [lo,hi): dst[d] is zeroed and
// then summed over the row's entries in serial-scatter order. Writes are
// confined to dst[lo:hi].
func (pl *ScatterPlan) GatherRange(src, dst []euler.State, lo, hi int) {
	for d := lo; d < hi; d++ {
		var s euler.State
		for e := pl.Start[d]; e < pl.Start[d+1]; e++ {
			sv := src[pl.Src[e]]
			f := pl.Wt[e]
			for c := 0; c < euler.NVar; c++ {
				s[c] += f * sv[c]
			}
		}
		dst[d] = s
	}
}

// Apply runs the full destination-grouped scatter; bitwise identical to
// the originating op's ScatterTranspose.
func (pl *ScatterPlan) Apply(src, dst []euler.State) {
	pl.GatherRange(src, dst, 0, pl.NDst())
}
