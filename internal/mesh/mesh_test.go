package mesh

import (
	"math"
	"strings"
	"testing"

	"eul3d/internal/geom"
)

// singleTet returns a finished mesh holding one positively-oriented unit
// right tetrahedron with all four faces marked as walls.
func singleTet(t *testing.T) *Mesh {
	t.Helper()
	m := &Mesh{
		X: []geom.Vec3{
			{X: 0, Y: 0, Z: 0},
			{X: 1, Y: 0, Z: 0},
			{X: 0, Y: 1, Z: 0},
			{X: 0, Y: 0, Z: 1},
		},
		Tets: [][4]int32{{0, 1, 2, 3}},
		BFaces: []BFace{
			{V: [3]int32{1, 2, 3}, Kind: Wall},
			{V: [3]int32{0, 3, 2}, Kind: Wall},
			{V: [3]int32{0, 1, 3}, Kind: Wall},
			{V: [3]int32{0, 2, 1}, Kind: Wall},
		},
	}
	if err := m.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return m
}

// twoTets returns a finished mesh of two tets sharing a face.
func twoTets(t *testing.T) *Mesh {
	t.Helper()
	m := &Mesh{
		X: []geom.Vec3{
			{X: 0, Y: 0, Z: 0},
			{X: 1, Y: 0, Z: 0},
			{X: 0, Y: 1, Z: 0},
			{X: 0, Y: 0, Z: 1},
			{X: 1, Y: 1, Z: 1},
		},
		// Tet 0: (0,1,2,3). Tet 1 shares face (1,2,3): (1,2,3,4) must be
		// positively oriented.
		Tets: [][4]int32{{0, 1, 2, 3}, {1, 2, 3, 4}},
	}
	// Boundary = all faces except the shared (1,2,3).
	m.BFaces = []BFace{
		{V: [3]int32{0, 3, 2}, Kind: Wall},
		{V: [3]int32{0, 1, 3}, Kind: Wall},
		{V: [3]int32{0, 2, 1}, Kind: Wall},
		{V: [3]int32{3, 4, 2}, Kind: Wall},
		{V: [3]int32{1, 4, 3}, Kind: Wall},
		{V: [3]int32{1, 2, 4}, Kind: Wall},
	}
	if err := m.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return m
}

func TestSingleTetCounts(t *testing.T) {
	m := singleTet(t)
	if m.NV() != 4 || m.NT() != 1 || m.NE() != 6 || len(m.BFaces) != 4 {
		t.Fatalf("counts: nv=%d nt=%d ne=%d nbf=%d", m.NV(), m.NT(), m.NE(), len(m.BFaces))
	}
	for _, e := range m.Edges {
		if e[0] >= e[1] {
			t.Errorf("edge %v not stored with i<j", e)
		}
	}
}

func TestDualVolumePartition(t *testing.T) {
	m := twoTets(t)
	tot := 0.0
	for _, v := range m.Vol {
		if v <= 0 {
			t.Fatalf("non-positive dual volume %g", v)
		}
		tot += v
	}
	want := geom.TetVolume(m.X[0], m.X[1], m.X[2], m.X[3]) +
		geom.TetVolume(m.X[1], m.X[2], m.X[3], m.X[4])
	if math.Abs(tot-want) > 1e-14 {
		t.Errorf("dual volumes sum to %g, want %g", tot, want)
	}
}

func TestValidateClosure(t *testing.T) {
	for name, m := range map[string]*Mesh{"single": singleTet(t), "two": twoTets(t)} {
		if err := m.Validate(1e-12); err != nil {
			t.Errorf("%s: Validate: %v", name, err)
		}
	}
}

func TestValidateDetectsBadBoundary(t *testing.T) {
	m := singleTet(t)
	// Flip one boundary face: the dual cell no longer closes.
	m.BFaces[0].V[1], m.BFaces[0].V[2] = m.BFaces[0].V[2], m.BFaces[0].V[1]
	if err := m.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if err := m.Validate(1e-9); err == nil {
		t.Error("Validate accepted a mesh with an inverted boundary face")
	}
}

func TestValidateDetectsMissingBoundaryFace(t *testing.T) {
	m := singleTet(t)
	m.BFaces = m.BFaces[:3]
	if err := m.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if err := m.Validate(1e-9); err == nil {
		t.Error("Validate accepted a mesh with a missing boundary face")
	}
}

func TestFinishRejectsInvertedTet(t *testing.T) {
	m := &Mesh{
		X: []geom.Vec3{
			{X: 0, Y: 0, Z: 0}, {X: 1, Y: 0, Z: 0}, {X: 0, Y: 1, Z: 0}, {X: 0, Y: 0, Z: 1},
		},
		Tets: [][4]int32{{1, 0, 2, 3}}, // negative volume
	}
	if err := m.Finish(); err == nil {
		t.Error("Finish accepted an inverted tet")
	}
}

func TestFinishRejectsOutOfRangeVertex(t *testing.T) {
	m := &Mesh{
		X:    []geom.Vec3{{}, {X: 1}, {Y: 1}},
		Tets: [][4]int32{{0, 1, 2, 9}},
	}
	if err := m.Finish(); err == nil {
		t.Error("Finish accepted an out-of-range vertex index")
	}
	m.Tets[0][3] = -1
	if err := m.Finish(); err == nil {
		t.Error("Finish accepted a negative vertex index")
	}
}

// TestFinishRejectsOutOfRangeFaceVertex requires Finish to return an error,
// not panic, on a boundary face with a vertex past the end or negative.
func TestFinishRejectsOutOfRangeFaceVertex(t *testing.T) {
	for _, v := range []int32{4, -1} {
		m := singleTet(t)
		m.BFaces[2].V[1] = v
		err := m.Finish()
		if err == nil || !strings.Contains(err.Error(), "boundary face 2") {
			t.Errorf("face vertex %d: err=%v", v, err)
		}
	}
}

func TestValidateBeforeFinish(t *testing.T) {
	m := &Mesh{}
	if err := m.Validate(1e-9); err == nil || !strings.Contains(err.Error(), "before Finish") {
		t.Errorf("Validate before Finish: err=%v", err)
	}
}

func TestEdgeNormalOrientation(t *testing.T) {
	// For the single tet, each edge normal must have a positive component
	// along the edge direction (the dual face separates i from j).
	m := singleTet(t)
	for e, ed := range m.Edges {
		dir := m.X[ed[1]].Sub(m.X[ed[0]])
		if m.EdgeNorm[e].Dot(dir) <= 0 {
			t.Errorf("edge %v: normal %v not oriented i->j", ed, m.EdgeNorm[e])
		}
	}
}

func TestConstantFluxDivergenceFree(t *testing.T) {
	// Divergence theorem at the discrete level: for a constant "flux"
	// vector c, sum over incident edges of +-c.n plus boundary closure
	// must vanish at every vertex. This is the property the convective
	// operator relies on to preserve uniform flow.
	m := twoTets(t)
	c := geom.Vec3{X: 0.3, Y: -1.2, Z: 0.7}
	res := make([]float64, m.NV())
	for e, ed := range m.Edges {
		f := c.Dot(m.EdgeNorm[e])
		res[ed[0]] += f
		res[ed[1]] -= f
	}
	for _, f := range m.BFaces {
		fl := c.Dot(f.Normal) / 3
		for _, v := range f.V {
			res[v] += fl
		}
	}
	for v, r := range res {
		if math.Abs(r) > 1e-13 {
			t.Errorf("vertex %d: constant-flux residual %g", v, r)
		}
	}
}

func TestVertexDegrees(t *testing.T) {
	m := singleTet(t)
	for v, d := range m.VertexDegrees() {
		if d != 3 {
			t.Errorf("vertex %d degree = %d, want 3", v, d)
		}
	}
}

func TestComputeStats(t *testing.T) {
	m := twoTets(t)
	s := m.ComputeStats()
	if s.NVert != 5 || s.NTet != 2 || s.NBFace != 6 {
		t.Errorf("stats: %+v", s)
	}
	if s.MinDualVolume <= 0 || s.MaxDualVolume < s.MinDualVolume {
		t.Errorf("volume stats: %+v", s)
	}
	if s.AvgEdgesPerVertex != 2*float64(s.NEdge)/5 {
		t.Errorf("AvgEdgesPerVertex = %v", s.AvgEdgesPerVertex)
	}
	var empty Mesh
	if es := empty.ComputeStats(); es.NVert != 0 {
		t.Errorf("empty stats: %+v", es)
	}
}

func TestBCKindString(t *testing.T) {
	if Wall.String() != "wall" || FarField.String() != "farfield" || Symmetry.String() != "symmetry" {
		t.Error("BCKind strings wrong")
	}
	if !strings.Contains(BCKind(99).String(), "99") {
		t.Error("unknown BCKind string")
	}
}
