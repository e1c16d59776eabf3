// Package mesh defines the unstructured tetrahedral mesh and the compact
// edge-based data structure at the heart of EUL3D (Mavriplis et al., SC'92).
//
// Flow variables live at vertices; residuals are assembled in loops over the
// unique edge list. Every edge carries a median-dual face normal so that the
// vertex-centered Galerkin finite-element discretization of the paper can be
// written as a single gather/scatter pass over edges. Boundary triangles
// carry their own area normals and a boundary-condition kind.
package mesh

import (
	"fmt"
	"math"

	"eul3d/internal/geom"
)

// BCKind labels the physical boundary condition applied on a boundary face.
type BCKind uint8

const (
	// Wall is an impermeable slip wall (weak pressure-flux closure).
	Wall BCKind = iota
	// FarField is a characteristic inflow/outflow boundary.
	FarField
	// Symmetry is a symmetry plane, treated like a slip wall.
	Symmetry
)

// String returns the lower-case name of the boundary kind.
func (k BCKind) String() string {
	switch k {
	case Wall:
		return "wall"
	case FarField:
		return "farfield"
	case Symmetry:
		return "symmetry"
	}
	return fmt.Sprintf("BCKind(%d)", uint8(k))
}

// BFace is a boundary triangle with an outward area-weighted normal.
type BFace struct {
	V      [3]int32  // vertex indices, ordered so the normal points outward
	Normal geom.Vec3 // area-weighted outward normal
	Kind   BCKind
}

// Mesh is an unstructured tetrahedral mesh in the edge-based form used by
// the solver. All index slices are parallel arrays; vertices are identified
// by position in X.
type Mesh struct {
	X    []geom.Vec3 // vertex coordinates
	Tets [][4]int32  // tetrahedra, positively oriented

	// Edge-based structure (built by Finish):
	Edges    [][2]int32  // unique edges (i, j) with i < j
	EdgeNorm []geom.Vec3 // median-dual face normal per edge, directed i -> j
	Vol      []float64   // median-dual control volume per vertex

	BFaces []BFace
}

// NV returns the number of vertices.
func (m *Mesh) NV() int { return len(m.X) }

// NT returns the number of tetrahedra.
func (m *Mesh) NT() int { return len(m.Tets) }

// NE returns the number of unique edges.
func (m *Mesh) NE() int { return len(m.Edges) }

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

// Finish builds the edge list, median-dual edge normals, dual control
// volumes and boundary-face normals from the vertex coordinates, tetrahedra
// and boundary-face vertex triples already stored in m. It must be called
// once after the mesh topology is assembled and before the mesh is used by
// a solver. It returns an error if a tetrahedron references a vertex out
// of range or has non-positive volume.
//
// Edges are numbered in first-encounter order over the tetrahedra, and
// every edge normal accumulates its tets' contributions in tet order. The
// edge index is a chain per lower endpoint threaded through the edge list
// itself (head[lo] -> next[id] -> ...): a lookup walks the handful of edges
// that vertex owns, which its neighbouring tets created moments ago.
func (m *Mesh) Finish() error {
	nv := m.NV()
	for ti, tet := range m.Tets {
		for _, v := range tet {
			if v < 0 || int(v) >= nv {
				return fmt.Errorf("mesh: tet %d references vertex out of range", ti)
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

	for ti, tet := range m.Tets {
		xa, xb, xc, xd := m.X[tet[0]], m.X[tet[1]], m.X[tet[2]], m.X[tet[3]]
		vol := geom.TetVolume(xa, xb, xc, xd)
		if vol <= 0 {
			return fmt.Errorf("mesh: tet %d has non-positive volume %g", ti, vol)
		}
		q := vol / 4
		for _, v := range tet {
			m.Vol[v] += q
		}
		gt := geom.TetCentroid(xa, xb, xc, xd)
		for _, e := range tetEdges {
			a, b, c, d := tet[e[0]], tet[e[1]], tet[e[2]], tet[e[3]]
			pa, pb, pc, pd := m.X[a], m.X[b], m.X[c], m.X[d]
			mid := pa.Add(pb).Scale(0.5)
			g1 := geom.TriCentroid(pa, pb, pc)
			g2 := geom.TriCentroid(pa, pb, pd)
			n := geom.TriAreaNormal(mid, g1, gt).Add(geom.TriAreaNormal(mid, gt, g2))
			lo, hi := a, b
			if a > b { // stored edge runs b -> a; flip contribution
				lo, hi = b, a
				n = n.Scale(-1)
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

	// Boundary-face normals from their (outward-ordered) vertex triples.
	for i := range m.BFaces {
		f := &m.BFaces[i]
		f.Normal = geom.TriAreaNormal(m.X[f.V[0]], m.X[f.V[1]], m.X[f.V[2]])
	}
	return nil
}

// Validate checks the geometric consistency of a finished mesh:
//
//  1. every dual control volume is positive and their sum equals the total
//     tetrahedral volume;
//  2. the dual cell around every vertex closes: the signed sum of incident
//     edge normals plus one third of each incident boundary-face normal
//     vanishes (to within tol relative to the local surface area).
//
// A violation of (2) is how inverted tets, inconsistent boundary
// orientations, or missing boundary faces manifest.
func (m *Mesh) Validate(tol float64) error {
	if m.Vol == nil {
		return fmt.Errorf("mesh: Validate called before Finish")
	}
	totTet := 0.0
	for _, tet := range m.Tets {
		totTet += geom.TetVolume(m.X[tet[0]], m.X[tet[1]], m.X[tet[2]], m.X[tet[3]])
	}
	totDual := 0.0
	for v, vol := range m.Vol {
		if vol <= 0 {
			return fmt.Errorf("mesh: vertex %d has non-positive dual volume %g", v, vol)
		}
		totDual += vol
	}
	if d := math.Abs(totTet - totDual); d > tol*(1+math.Abs(totTet)) {
		return fmt.Errorf("mesh: dual volume sum %g differs from tet volume sum %g", totDual, totTet)
	}

	closure := make([]geom.Vec3, m.NV())
	scale := make([]float64, m.NV())
	for e, ed := range m.Edges {
		n := m.EdgeNorm[e]
		closure[ed[0]] = closure[ed[0]].Add(n)
		closure[ed[1]] = closure[ed[1]].Sub(n)
		a := n.Norm()
		scale[ed[0]] += a
		scale[ed[1]] += a
	}
	for _, f := range m.BFaces {
		third := f.Normal.Scale(1.0 / 3.0)
		for _, v := range f.V {
			closure[v] = closure[v].Add(third)
			scale[v] += third.Norm()
		}
	}
	for v := range closure {
		if closure[v].Norm() > tol*(1+scale[v]) {
			return fmt.Errorf("mesh: dual cell around vertex %d does not close: residual %g (area scale %g)",
				v, closure[v].Norm(), scale[v])
		}
	}
	return nil
}

// Stats summarizes mesh size and quality.
type Stats struct {
	NVert, NTet, NEdge, NBFace int
	TotalVolume                float64
	MinDualVolume              float64
	MaxDualVolume              float64
	AvgEdgesPerVertex          float64
}

// ComputeStats returns summary statistics for a finished mesh.
func (m *Mesh) ComputeStats() Stats {
	s := Stats{
		NVert:  m.NV(),
		NTet:   m.NT(),
		NEdge:  m.NE(),
		NBFace: len(m.BFaces),
	}
	if m.NV() == 0 {
		return s
	}
	s.MinDualVolume = math.Inf(1)
	for _, v := range m.Vol {
		s.TotalVolume += v
		s.MinDualVolume = math.Min(s.MinDualVolume, v)
		s.MaxDualVolume = math.Max(s.MaxDualVolume, v)
	}
	s.AvgEdgesPerVertex = 2 * float64(m.NE()) / float64(m.NV())
	return s
}

// VertexDegrees returns the number of incident edges per vertex.
func (m *Mesh) VertexDegrees() []int32 {
	deg := make([]int32, m.NV())
	for _, e := range m.Edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	return deg
}
