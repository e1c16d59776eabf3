// Package partition implements the mesh partitioning strategies of the
// paper's distributed-memory port: recursive spectral bisection (the
// Pothen–Simon–Liou method the paper uses, with the Fiedler vector of the
// graph Laplacian computed by Barnard and Simon's multilevel scheme: a
// Lanczos solve on a coarsened graph, refined level by level), plus the
// cheaper inertial and BFS-greedy baselines, and quality metrics (edge cut,
// imbalance, boundary fraction) that determine communication volume on the
// Delta.
package partition

import (
	"fmt"
	"math"
)

// The multilevel Fiedler solve's fixed sizes (DESIGN §3.3 gives the cut
// table they were chosen by):
//   - coarsening stops once a level has at most coarsestVerts vertices, or
//     when a matching shrinks a level by less than 15 %;
//   - the coarsest level runs coarseSteps Lanczos steps from a fixed start;
//   - every finer level runs refineSteps steps from the injected vector.
const (
	coarsestVerts = 300
	coarseSteps   = 30
	refineSteps   = 5
)

// subgraph is a graph in local indices: a vertex-induced subgraph of the
// recursion (verts set, every edge of weight 1) or a level of its
// coarsening (verts nil, edge weights in wt: counts of the fine edges an
// edge stands for, so every weight and degree is an exact integer). Its
// Laplacian is L = D − W with D the weighted degrees.
type subgraph struct {
	verts []int32 // global ids, local index -> global; nil on coarse levels
	ptr   []int32
	adj   []int32 // local indices
	wt    []int32 // edge weights beside adj; nil when every edge weighs 1
	deg   []int32 // weighted degrees; nil with wt
}

// n returns the number of vertices.
func (s *subgraph) n() int { return len(s.ptr) - 1 }

// weight returns the weight of the edge at adj[k].
func (s *subgraph) weight(k int32) int32 {
	if s.wt == nil {
		return 1
	}
	return s.wt[k]
}

// lapMatVecDot computes y = L x and returns the dot product y·x,
// accumulated vertex by vertex in the same pass.
func (s *subgraph) lapMatVecDot(x, y []float64) float64 {
	dot := 0.0
	if s.wt == nil {
		for v := range y {
			d := float64(s.ptr[v+1] - s.ptr[v])
			sum := 0.0
			for _, w := range s.adj[s.ptr[v]:s.ptr[v+1]] {
				sum += x[w]
			}
			y[v] = d*x[v] - sum
			dot += y[v] * x[v]
		}
		return dot
	}
	for v := range y {
		lo, hi := s.ptr[v], s.ptr[v+1]
		wt := s.wt[lo:hi]
		sum := 0.0
		for k, w := range s.adj[lo:hi] {
			sum += float64(wt[k]) * x[w]
		}
		y[v] = float64(s.deg[v])*x[v] - sum
		dot += y[v] * x[v]
	}
	return dot
}

// coarsen contracts a heavy-edge matching of s. Vertices are visited in
// local order; an unmatched vertex pairs with its unmatched neighbour of
// largest weight, the lowest local index among equals, or stays single.
// Coarse vertices are numbered in visit order and cmap maps each vertex of
// s to its coarse vertex. The coarse edge between two coarse vertices
// carries the summed weights of the fine edges between their members, in
// order of first appearance; edges inside a pair vanish.
func (s *subgraph) coarsen() (c *subgraph, cmap []int32) {
	n := s.n()
	cmap = make([]int32, n)
	for i := range cmap {
		cmap[i] = -1
	}
	// members[2c], members[2c+1]: the fine vertices of coarse vertex c,
	// the second -1 for a single.
	members := make([]int32, 0, 2*n)
	nc := int32(0)
	for v := int32(0); int(v) < n; v++ {
		if cmap[v] >= 0 {
			continue
		}
		best, bw := int32(-1), int32(0)
		for k := s.ptr[v]; k < s.ptr[v+1]; k++ {
			u := s.adj[k]
			if cmap[u] >= 0 || u == v {
				continue
			}
			if w := s.weight(k); best < 0 || w > bw || (w == bw && u < best) {
				best, bw = u, w
			}
		}
		cmap[v] = nc
		if best >= 0 {
			cmap[best] = nc
		}
		members = append(members, v, best)
		nc++
	}

	c = &subgraph{ptr: make([]int32, nc+1), deg: make([]int32, nc)}
	c.adj = make([]int32, 0, len(s.adj))
	c.wt = make([]int32, 0, len(s.adj))
	// slot[cu]: cu's entry in the coarse row being built, or -1.
	slot := make([]int32, nc)
	for i := range slot {
		slot[i] = -1
	}
	for ci := int32(0); ci < nc; ci++ {
		start := int32(len(c.adj))
		for _, v := range members[2*ci : 2*ci+2] {
			if v < 0 {
				continue
			}
			for k := s.ptr[v]; k < s.ptr[v+1]; k++ {
				cu := cmap[s.adj[k]]
				if cu == ci {
					continue
				}
				w := s.weight(k)
				if j := slot[cu]; j >= 0 {
					c.wt[j] += w
				} else {
					slot[cu] = int32(len(c.adj))
					c.adj = append(c.adj, cu)
					c.wt = append(c.wt, w)
				}
			}
		}
		d := int32(0)
		for j, cu := range c.adj[start:] {
			d += c.wt[int(start)+j]
			slot[cu] = -1
		}
		c.deg[ci] = d
		c.ptr[ci+1] = int32(len(c.adj))
	}
	return c, cmap
}

// fiedler returns an approximation to the eigenvector of the second-
// smallest eigenvalue of the subgraph's Laplacian, by Barnard and Simon's
// multilevel scheme. s is coarsened by repeated heavy-edge matching; the
// coarsest level's vector is computed by Lanczos from a fixed start (a
// Weyl sequence, so the solve draws no random numbers), and each finer
// level injects the coarser vector (x_f[v] = x_c[cmap[v]]) and refines it
// by a few Lanczos steps started from it. s must be connected: so is every
// coarse level then.
func (s *subgraph) fiedler() ([]float64, error) {
	n := s.n()
	if n < 2 {
		return nil, fmt.Errorf("partition: fiedler on %d vertices", n)
	}
	levels := []*subgraph{s}
	var cmaps [][]int32
	for g := s; g.n() > coarsestVerts; {
		c, cmap := g.coarsen()
		if c.n() > g.n()*85/100 {
			break
		}
		levels = append(levels, c)
		cmaps = append(cmaps, cmap)
		g = c
	}

	top := levels[len(levels)-1]
	x := make([]float64, top.n())
	// (i+1)/φ mod 1: no symmetry of a mesh's numbering can make it
	// orthogonal to the Fiedler vector, as a ramp or an alternating
	// vector could be.
	for i := range x {
		_, x[i] = math.Modf(float64(i+1) * 0.6180339887498949)
	}
	x, err := top.lanczos(x, coarseSteps)
	for l := len(levels) - 2; l >= 0 && err == nil; l-- {
		xf := make([]float64, levels[l].n())
		for v, c := range cmaps[l] {
			xf[v] = x[c]
		}
		x, err = levels[l].lanczos(xf, refineSteps)
	}
	return x, err
}

// lanczos runs up to maxIter Lanczos steps on the Laplacian from the start
// vector w (which it overwrites), with full reorthogonalization and
// deflation of the constant vector, and returns the Ritz vector of the
// smallest Ritz value: with the constant mode deflated, it approximates
// the Fiedler vector, and it is at least as good an approximation, in the
// Rayleigh quotient, as the start.
//
// The solve is bound by the latency of its dot products: each is one
// chain of dependent adds over the vertices, j + 4 of them in step j. So
// every pass over the vertices carries exactly one chain, with the vector
// updates that precede it riding along: the Laplacian product with α, the
// α/β updates with the constant-mode dot, each Gram–Schmidt update against
// basis vector j with the dot against vector j+1, and the last update with
// the norm.
func (s *subgraph) lanczos(w []float64, maxIter int) ([]float64, error) {
	n := s.n()
	m := maxIter
	if m > n-1 {
		m = n - 1
	}
	if m < 1 {
		m = 1
	}

	ones := 1 / math.Sqrt(float64(n))
	// The Lanczos basis, one allocation per vector as the steps reach it
	// (one m×n slab read the distributed benchmark's peak RSS higher,
	// DESIGN §3.3); alpha/beta of the tridiagonal.
	V := make([][]float64, 0, m)
	alpha := make([]float64, 0, m)
	beta := make([]float64, 0, m)

	// The start with the constant mode projected out.
	dot := 0.0
	for i := range w {
		dot += w[i] * ones
	}
	nrm := 0.0
	for i := range w {
		w[i] -= dot * ones
		nrm += w[i] * w[i]
	}
	if nrm = math.Sqrt(nrm); nrm == 0 {
		return nil, fmt.Errorf("partition: degenerate Lanczos start")
	}
	V = append(V, scaled(w, 1/nrm))

	for it := 0; it < m; it++ {
		v := V[it][:n]
		a := s.lapMatVecDot(v, w)
		alpha = append(alpha, a)
		if it == m-1 {
			// The last step's β would be beta[m-1], which the
			// tridiagonal solve below never reads.
			break
		}
		// w -= a·v + β·v_prev, then full reorthogonalization: against
		// the constant mode, then modified Gram–Schmidt over the basis.
		dot := 0.0
		if it > 0 {
			b, prev := beta[it-1], V[it-1][:n]
			for i := range w {
				w[i] -= a * v[i]
				w[i] -= b * prev[i]
				dot += w[i] * ones
			}
		} else {
			for i := range w {
				w[i] -= a * v[i]
				dot += w[i] * ones
			}
		}
		u := V[0][:n]
		next := 0.0
		for i := range w {
			w[i] -= dot * ones
			next += w[i] * u[i]
		}
		for j := 0; j < it; j++ {
			u, un := V[j][:n], V[j+1][:n]
			dot, next = next, 0.0
			for i := range w {
				w[i] -= dot * u[i]
				next += w[i] * un[i]
			}
		}
		nrm := 0.0
		for i := range w {
			w[i] -= next * v[i]
			nrm += w[i] * w[i]
		}
		b := math.Sqrt(nrm)
		if b < 1e-12 {
			break
		}
		beta = append(beta, b)
		V = append(V, scaled(w, 1/b))
	}

	k := len(alpha)
	// Solve the k x k tridiagonal eigenproblem; take the eigenvector of the
	// smallest eigenvalue.
	evals, evecs, err := tridiagEigen(alpha, beta[:k-1])
	if err != nil {
		return nil, err
	}
	best := 0
	for i := 1; i < k; i++ {
		if evals[i] < evals[best] {
			best = i
		}
	}
	out := w
	for i := range out {
		out[i] = 0
	}
	for j := 0; j < k; j++ {
		c := evecs[j][best]
		u := V[j][:n]
		for i := range out {
			out[i] += c * u[i]
		}
	}
	return out, nil
}

// scaled returns a new vector x·s.
func scaled(x []float64, s float64) []float64 {
	y := make([]float64, len(x))
	for i := range x {
		y[i] = x[i] * s
	}
	return y
}

// tridiagEigen computes all eigenvalues and eigenvectors of the symmetric
// tridiagonal matrix with diagonal d (length n) and off-diagonal e (length
// n-1) using the implicit QL algorithm with Wilkinson shifts (the classical
// tql2 routine). It returns the eigenvalues and the matrix of eigenvectors
// (evec[i][j] = component i of eigenvector j), or an error if an
// eigenvalue has not converged in 50 iterations. It overwrites d and may
// write e's backing array one past its length.
func tridiagEigen(d, e []float64) ([]float64, [][]float64, error) {
	n := len(d)
	z := make([][]float64, n)
	for i := range z {
		z[i] = make([]float64, n)
		z[i][i] = 1
	}
	if n == 1 {
		return d, z, nil
	}
	e = append(e, 0)

	for l := 0; l < n; l++ {
		iter := 0
		for {
			mIdx := l
			for ; mIdx < n-1; mIdx++ {
				dd := math.Abs(d[mIdx]) + math.Abs(d[mIdx+1])
				if math.Abs(e[mIdx]) <= 1e-15*dd {
					break
				}
			}
			if mIdx == l {
				break
			}
			iter++
			if iter > 50 {
				return nil, nil, fmt.Errorf("partition: tridiagonal eigenvalue %d of %d not converged in 50 iterations", l, n)
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			sg := r
			if g < 0 {
				sg = -r
			}
			g = d[mIdx] - d[l] + e[l]/(g+sg)
			s, c := 1.0, 1.0
			p := 0.0
			for i := mIdx - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[mIdx] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				for k := 0; k < n; k++ {
					f := z[k][i+1]
					z[k][i+1] = s*z[k][i] + c*f
					z[k][i] = c*z[k][i] - s*f
				}
			}
			if r == 0 && mIdx-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[mIdx] = 0
		}
	}
	return d, z, nil
}
