package reorder

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"eul3d/internal/color"
	"eul3d/internal/geom"
	"eul3d/internal/graph"
	"eul3d/internal/mesh"
)

// ApplyToMesh returns a copy of m with vertices renumbered by perm
// (perm[new] = old) and the edge-based structures rebuilt by Finish.
// Per-vertex data indexed by the old numbering maps to the new one through
// InversePerm.
func ApplyToMesh(m *mesh.Mesh, perm []int32) (*mesh.Mesh, error) {
	if len(perm) != m.NV() {
		return nil, fmt.Errorf("reorder: permutation length %d != vertex count %d", len(perm), m.NV())
	}
	inv := InversePerm(perm)
	out := &mesh.Mesh{
		X:      make([]geom.Vec3, m.NV()),
		Tets:   make([][4]int32, m.NT()),
		BFaces: make([]mesh.BFace, len(m.BFaces)),
	}
	for newID, old := range perm {
		out.X[newID] = m.X[old]
	}
	for ti, tet := range m.Tets {
		for k := 0; k < 4; k++ {
			out.Tets[ti][k] = inv[tet[k]]
		}
	}
	for fi, f := range m.BFaces {
		out.BFaces[fi].Kind = f.Kind
		for k := 0; k < 3; k++ {
			out.BFaces[fi].V[k] = inv[f.V[k]]
		}
	}
	if err := out.Finish(); err != nil {
		return nil, fmt.Errorf("reorder: %w", err)
	}
	return out, nil
}

// Scramble returns m as a generator with no regard for locality would have
// written it: vertices renumbered by a seeded random permutation and the
// tetrahedron and boundary-face lists shuffled, so that Finish's
// first-encounter edge numbering is arbitrary too. It is the worst-case
// input of the ordering experiments (the paper's Section 4.2 starts from an
// advancing-front mesh, whose numbering is essentially this) and of the
// pooled engine, whose workers each own a contiguous vertex range: on a
// scrambled mesh about half the edges join two workers' ranges and are
// computed by both.
func Scramble(m *mesh.Mesh, seed int64) (*mesh.Mesh, error) {
	rng := rand.New(rand.NewSource(seed))
	perm := make([]int32, m.NV())
	for i, old := range rng.Perm(m.NV()) {
		perm[i] = int32(old)
	}
	shuffled := &mesh.Mesh{
		X:      m.X,
		Tets:   append([][4]int32(nil), m.Tets...),
		BFaces: append([]mesh.BFace(nil), m.BFaces...),
	}
	rng.Shuffle(len(shuffled.Tets), func(i, j int) {
		shuffled.Tets[i], shuffled.Tets[j] = shuffled.Tets[j], shuffled.Tets[i]
	})
	rng.Shuffle(len(shuffled.BFaces), func(i, j int) {
		shuffled.BFaces[i], shuffled.BFaces[j] = shuffled.BFaces[j], shuffled.BFaces[i]
	})
	return ApplyToMesh(shuffled, perm)
}

// RCMMesh renumbers a finished mesh with reverse Cuthill–McKee — the
// paper's node renumbering, which places data of mesh-adjacent nodes in
// nearby memory locations — and stably sorts its tetrahedra and boundary
// faces by their lowest new vertex: Finish numbers the edges in
// tetrahedron order, so new vertex numbers alone would leave a scrambled
// mesh's edge order, and every loop over it, as scattered as before.
func RCMMesh(m *mesh.Mesh) (*mesh.Mesh, error) {
	g, err := graph.FromEdges(m.NV(), m.Edges)
	if err != nil {
		return nil, err
	}
	perm := CuthillMcKee(g, true)
	inv := InversePerm(perm)
	lowest := func(vs []int32) int32 {
		lo := inv[vs[0]]
		for _, v := range vs[1:] {
			lo = min(lo, inv[v])
		}
		return lo
	}
	sorted := &mesh.Mesh{X: m.X, Tets: slices.Clone(m.Tets), BFaces: slices.Clone(m.BFaces)}
	slices.SortStableFunc(sorted.Tets, func(a, b [4]int32) int { return cmp.Compare(lowest(a[:]), lowest(b[:])) })
	slices.SortStableFunc(sorted.BFaces, func(a, b mesh.BFace) int { return cmp.Compare(lowest(a.V[:]), lowest(b.V[:])) })
	return ApplyToMesh(sorted, perm)
}

// ColorCanonical returns a copy of m whose edge list (with its dual
// normals) and boundary-face list are permuted into the group order of the
// per-element greedy colorings (color.Greedy, color.GreedyFaces): the order
// a vector pipe walks, in which no two consecutive edges of a color share a
// vertex. It is an input to the edge-ordering studies (the ordering
// ablation, BenchmarkEdgeSweep), not a layout any engine builds: the pooled
// engine walks m's own edge order, each worker the edges that touch the
// vertices it owns. Geometry, topology and control volumes are
// untouched (X, Tets, Vol are shared with m); only the iteration order of
// the element lists changes, which is solution-neutral for the sequential
// solver up to its own accumulation roundoff.
func ColorCanonical(m *mesh.Mesh) (*mesh.Mesh, error) {
	ec, err := color.Greedy(m.NV(), m.Edges)
	if err != nil {
		return nil, fmt.Errorf("reorder: edge coloring: %w", err)
	}
	faces := make([][3]int32, len(m.BFaces))
	for i := range m.BFaces {
		faces[i] = m.BFaces[i].V
	}
	fc, err := color.GreedyFaces(m.NV(), faces)
	if err != nil {
		return nil, fmt.Errorf("reorder: face coloring: %w", err)
	}
	out := &mesh.Mesh{
		X:        m.X,
		Tets:     m.Tets,
		Vol:      m.Vol,
		Edges:    make([][2]int32, len(m.Edges)),
		EdgeNorm: make([]geom.Vec3, len(m.EdgeNorm)),
		BFaces:   make([]mesh.BFace, len(m.BFaces)),
	}
	for at, ei := range ec.Order {
		out.Edges[at] = m.Edges[ei]
		out.EdgeNorm[at] = m.EdgeNorm[ei]
	}
	for at, fi := range fc.Order {
		out.BFaces[at] = m.BFaces[fi]
	}
	return out, nil
}
