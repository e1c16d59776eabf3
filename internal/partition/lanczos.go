// Package partition implements the mesh partitioning strategies of the
// paper's distributed-memory port: recursive spectral bisection (the
// Pothen–Simon–Liou method the paper uses, built on a Lanczos eigensolver
// for the Fiedler vector of the graph Laplacian), plus the cheaper inertial
// and BFS-greedy baselines, and quality metrics (edge cut, imbalance,
// boundary fraction) that determine communication volume on the Delta.
package partition

import (
	"fmt"
	"math"
	"math/rand"
)

// subgraph is a vertex-induced subgraph with local indexing, used by the
// recursive bisection.
type subgraph struct {
	verts []int32 // global ids, local index -> global
	ptr   []int32
	adj   []int32 // local indices
}

// degree returns the degree of local vertex v within the subgraph.
func (s *subgraph) degree(v int32) int32 { return s.ptr[v+1] - s.ptr[v] }

// lapMatVecDot computes y = L x with L = D - A of the subgraph and returns
// the dot product y·x, accumulated vertex by vertex in the same pass.
func (s *subgraph) lapMatVecDot(x, y []float64) float64 {
	dot := 0.0
	for v := range y {
		d := float64(s.degree(int32(v)))
		sum := 0.0
		for _, w := range s.adj[s.ptr[v]:s.ptr[v+1]] {
			sum += x[w]
		}
		y[v] = d*x[v] - sum
		dot += y[v] * x[v]
	}
	return dot
}

// fiedler returns an approximation to the eigenvector of the second-
// smallest eigenvalue of the subgraph Laplacian, computed by Lanczos with
// full reorthogonalization (and deflation of the constant vector). rng
// seeds the starting vector so results are deterministic.
//
// The solve is bound by the latency of its dot products: each is one
// chain of dependent adds over the vertices, about 2,000 of them for 60
// iterations. So every pass over the vertices carries exactly one chain,
// with the vector updates that precede it riding along: the Laplacian
// product with α, the α/β updates with the constant-mode dot, each
// Gram–Schmidt update against basis vector j with the dot against vector
// j+1, and the last update with the norm. Each value still goes through
// the same floating-point operations in the same order as in separate
// passes, so the vector is the same to the bit.
func (s *subgraph) fiedler(rng *rand.Rand, maxIter int) ([]float64, error) {
	n := len(s.verts)
	if n < 2 {
		return nil, fmt.Errorf("partition: fiedler on %d vertices", n)
	}
	m := maxIter
	if m > n-1 {
		m = n - 1
	}
	if m < 1 {
		m = 1
	}

	ones := 1 / math.Sqrt(float64(n))
	// The Lanczos basis, one allocation per vector as the steps reach it:
	// one m×n slab (10 MB on the 48×24×16 channel) read the distributed
	// benchmark's peak RSS higher (EXPERIMENTS.md, "The partitioner at its
	// floor"). alpha/beta of the tridiagonal.
	V := make([][]float64, 0, m)
	alpha := make([]float64, 0, m)
	beta := make([]float64, 0, m)

	// Start from a random vector with the constant mode projected out.
	w := make([]float64, n)
	dot := 0.0
	for i := range w {
		w[i] = rng.NormFloat64()
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
	// smallest eigenvalue (the constant mode was deflated, so this Ritz
	// pair approximates the Fiedler pair).
	evals, evecs := tridiagEigen(alpha, beta[:k-1])
	best := 0
	for i := 1; i < k; i++ {
		if evals[i] < evals[best] {
			best = i
		}
	}
	out := make([]float64, n)
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
// (evec[i][j] = component i of eigenvector j).
func tridiagEigen(d, e []float64) ([]float64, [][]float64) {
	n := len(d)
	z := make([][]float64, n)
	for i := range z {
		z[i] = make([]float64, n)
		z[i][i] = 1
	}
	if n == 1 {
		return d, z
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
				break // settle for what we have
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
	return d, z
}
