package partition

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"eul3d/internal/geom"
	"eul3d/internal/graph"
)

// Method selects a partitioning strategy.
type Method int

const (
	// Spectral is recursive spectral bisection (the paper's choice): high
	// quality. The paper found it as costly as a sequential flow solution;
	// here 64 parts cost 0.07× a 100-cycle single-grid solve of the same
	// mesh (results/claims.txt).
	Spectral Method = iota
	// Inertial is recursive coordinate bisection along the principal axis:
	// much cheaper, somewhat larger cuts.
	Inertial
	// BFSGreedy grows parts breadth-first from peripheral seeds: cheapest,
	// worst cuts.
	BFSGreedy
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case Spectral:
		return "spectral"
	case Inertial:
		return "inertial"
	case BFSGreedy:
		return "bfs-greedy"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Partition assigns each of the graph's vertices to one of nparts parts.
// coords are required by Inertial and ignored by the others (may be nil).
// Every method is deterministic and draws no random numbers: seed is
// ignored, and kept only for the callers that pass it. The bisections run
// the subtrees of their top splits concurrently when GOMAXPROCS allows,
// with the same result at any GOMAXPROCS.
func Partition(g *graph.CSR, coords []geom.Vec3, nparts int, method Method, seed int64) ([]int32, error) {
	n := g.N()
	if nparts < 1 {
		return nil, fmt.Errorf("partition: nparts must be >= 1, got %d", nparts)
	}
	if nparts > n {
		return nil, fmt.Errorf("partition: nparts %d exceeds vertex count %d", nparts, n)
	}
	if method == Inertial && coords == nil {
		return nil, fmt.Errorf("partition: inertial bisection requires coordinates")
	}
	part := make([]int32, n)
	if nparts == 1 {
		return part, nil
	}
	if method == BFSGreedy {
		return bfsGreedy(g, nparts)
	}

	var local []int32
	if method == Spectral {
		local = newLocal(n)
	}
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	// The two subtrees of a split share no state but part, where they
	// write disjoint vertices, so down to spawnDepth a split runs its left
	// subtree on a goroutine of its own (with its own local table) beside
	// the right one: one subtree for each of GOMAXPROCS processors. The
	// partition is the same at any GOMAXPROCS.
	spawnDepth := 0
	for 1<<spawnDepth < runtime.GOMAXPROCS(0) {
		spawnDepth++
	}
	var recurse func(verts []int32, first, count, depth int, local []int32) error
	recurse = func(verts []int32, first, count, depth int, local []int32) error {
		if count == 1 {
			for _, v := range verts {
				part[v] = int32(first)
			}
			return nil
		}
		k1 := count / 2
		frac := float64(k1) / float64(count)
		var left, right []int32
		var err error
		switch method {
		case Spectral:
			left, right, err = spectralSplit(g, verts, frac, local)
		case Inertial:
			left, right, err = inertialSplit(coords, verts, frac)
		default:
			return fmt.Errorf("partition: unknown method %v", method)
		}
		if err != nil {
			return err
		}
		if depth >= spawnDepth {
			if err := recurse(left, first, k1, depth+1, local); err != nil {
				return err
			}
			return recurse(right, first+k1, count-k1, depth+1, local)
		}
		lerr := make(chan error, 1)
		go func() {
			own := local
			if local != nil {
				own = newLocal(n)
			}
			lerr <- recurse(left, first, k1, depth+1, own)
		}()
		rerr := recurse(right, first+k1, count-k1, depth+1, local)
		if err := <-lerr; err != nil {
			return err
		}
		return rerr
	}
	if err := recurse(all, 0, nparts, 0, local); err != nil {
		return nil, err
	}
	return part, nil
}

// newLocal returns the recursion's dense global→local vertex table for a
// graph of n vertices: -1 wherever no subgraph is being built.
func newLocal(n int) []int32 {
	local := make([]int32, n)
	for i := range local {
		local[i] = -1
	}
	return local
}

// induced builds the local-index subgraph of verts, marking verts in local
// (a newLocal table) for the build and clearing them again after.
func induced(g *graph.CSR, verts []int32, local []int32) *subgraph {
	for li, v := range verts {
		local[v] = int32(li)
	}
	s := &subgraph{verts: verts, ptr: make([]int32, len(verts)+1)}
	for li, v := range verts {
		for _, w := range g.Neighbors(v) {
			if local[w] >= 0 {
				s.ptr[li+1]++
			}
		}
	}
	for i := 0; i < len(verts); i++ {
		s.ptr[i+1] += s.ptr[i]
	}
	s.adj = make([]int32, s.ptr[len(verts)])
	for li, v := range verts {
		k := s.ptr[li]
		for _, w := range g.Neighbors(v) {
			if lw := local[w]; lw >= 0 {
				s.adj[k] = lw
				k++
			}
		}
	}
	for _, v := range verts {
		local[v] = -1
	}
	return s
}

// splitByKey partitions verts at the weighted median of key: the
// round(frac*len) vertices first in the total order by key, then by
// position in verts, go left and the rest right, each side in verts' order.
// A sorted copy of the keys gives the threshold; the split itself is one
// stable pass, so equal keys keep their input order.
func splitByKey(verts []int32, key []float64, frac float64) (left, right []int32) {
	nl := int(frac*float64(len(verts)) + 0.5)
	if nl < 1 {
		nl = 1
	}
	if nl > len(verts)-1 {
		nl = len(verts) - 1
	}
	sorted := slices.Clone(key)
	slices.Sort(sorted)
	thr := sorted[nl-1]
	// ties: how many of the keys equal to thr still go left.
	first, _ := slices.BinarySearch(sorted, thr)
	ties := nl - first
	left = make([]int32, 0, nl)
	right = make([]int32, 0, len(verts)-nl)
	for i, v := range verts {
		if k := key[i]; k < thr || (k == thr && ties > 0) {
			if k == thr {
				ties--
			}
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	return left, right
}

// spectralSplit bisects verts by the Fiedler vector of the induced
// subgraph. Disconnected subgraphs fall back to a BFS ordering split (the
// Fiedler vector of a disconnected graph only separates components).
func spectralSplit(g *graph.CSR, verts []int32, frac float64, local []int32) (left, right []int32, err error) {
	if len(verts) <= 3 {
		return splitIdentity(verts, frac)
	}
	s := induced(g, verts, local)
	if nc := countComponents(s); nc > 1 {
		key := bfsKey(s)
		l, r := splitByKey(verts, key, frac)
		return l, r, nil
	}
	f, err := s.fiedler()
	if err != nil {
		return nil, nil, err
	}
	l, r := splitByKey(verts, f, frac)
	return l, r, nil
}

func splitIdentity(verts []int32, frac float64) (left, right []int32, err error) {
	key := make([]float64, len(verts))
	for i := range key {
		key[i] = float64(i)
	}
	l, r := splitByKey(verts, key, frac)
	return l, r, nil
}

// countComponents counts connected components of a subgraph.
func countComponents(s *subgraph) int {
	n := len(s.verts)
	seen := make([]bool, n)
	nc := 0
	var stack []int32
	for v := 0; v < n; v++ {
		if seen[v] {
			continue
		}
		nc++
		seen[v] = true
		stack = append(stack[:0], int32(v))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range s.adj[s.ptr[u]:s.ptr[u+1]] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	return nc
}

// bfsKey returns BFS visit order as a split key (component by component).
func bfsKey(s *subgraph) []float64 {
	n := len(s.verts)
	key := make([]float64, n)
	seen := make([]bool, n)
	order := 0
	queue := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if seen[v] {
			continue
		}
		seen[v] = true
		queue = append(queue[:0], int32(v))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			key[u] = float64(order)
			order++
			for _, w := range s.adj[s.ptr[u]:s.ptr[u+1]] {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	return key
}

// inertialSplit bisects verts at the median projection onto the principal
// axis of their coordinates.
func inertialSplit(coords []geom.Vec3, verts []int32, frac float64) (left, right []int32, err error) {
	var c geom.Vec3
	for _, v := range verts {
		c = c.Add(coords[v])
	}
	c = c.Scale(1 / float64(len(verts)))
	// 3x3 covariance.
	var m [3][3]float64
	for _, v := range verts {
		d := coords[v].Sub(c)
		x := [3]float64{d.X, d.Y, d.Z}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				m[i][j] += x[i] * x[j]
			}
		}
	}
	// Principal axis by power iteration.
	axis := [3]float64{1, 0.5, 0.25}
	for it := 0; it < 50; it++ {
		var nx [3]float64
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				nx[i] += m[i][j] * axis[j]
			}
		}
		nrm := 0.0
		for i := 0; i < 3; i++ {
			nrm += nx[i] * nx[i]
		}
		if nrm == 0 {
			break
		}
		inv := 1 / math.Sqrt(nrm)
		for i := 0; i < 3; i++ {
			axis[i] = nx[i] * inv
		}
	}
	key := make([]float64, len(verts))
	for i, v := range verts {
		d := coords[v].Sub(c)
		key[i] = d.X*axis[0] + d.Y*axis[1] + d.Z*axis[2]
	}
	l, r := splitByKey(verts, key, frac)
	return l, r, nil
}

// bfsGreedy grows nparts contiguous parts of near-equal size by repeated
// BFS from a peripheral unassigned vertex.
func bfsGreedy(g *graph.CSR, nparts int) ([]int32, error) {
	n := g.N()
	part := make([]int32, n)
	for i := range part {
		part[i] = -1
	}
	target := (n + nparts - 1) / nparts
	assigned := 0
	for p := 0; p < nparts; p++ {
		// Seed: an unassigned vertex with the fewest unassigned neighbours
		// (peripheral in the remaining graph).
		seed := int32(-1)
		best := int32(1 << 30)
		for v := int32(0); int(v) < n; v++ {
			if part[v] >= 0 {
				continue
			}
			free := int32(0)
			for _, w := range g.Neighbors(v) {
				if part[w] < 0 {
					free++
				}
			}
			if free < best {
				best, seed = free, v
			}
		}
		if seed < 0 {
			break
		}
		size := target
		if rem := n - assigned; p == nparts-1 || rem < size {
			size = n - assigned
			if p < nparts-1 {
				size = target
			}
		}
		queue := []int32{seed}
		part[seed] = int32(p)
		count := 1
		for head := 0; head < len(queue) && count < size; head++ {
			for _, w := range g.Neighbors(queue[head]) {
				if part[w] < 0 {
					part[w] = int32(p)
					queue = append(queue, w)
					count++
					if count == size {
						break
					}
				}
			}
		}
		// The BFS may exhaust its component before reaching the target
		// size; sweep for strays.
		for v := int32(0); int(v) < n && count < size; v++ {
			if part[v] < 0 {
				part[v] = int32(p)
				count++
			}
		}
		assigned += count
	}
	// Any leftovers to the last part.
	for v := range part {
		if part[v] < 0 {
			part[v] = int32(nparts - 1)
		}
	}
	return part, nil
}
