package smsolver

import (
	"fmt"

	"eul3d/internal/color"
	"eul3d/internal/euler"
	"eul3d/internal/mesh"
)

// Rebuild retargets the solver at a new mesh — in practice one produced by
// selective refinement of the current mesh — without tearing the engine
// down. It is the incremental path the adaptation driver takes between
// epochs, and it is cheap where a fresh NewColored is not:
//
//   - The edge coloring is extended (color.ExtendGreedy), not recomputed:
//     every surviving edge keeps its old color and only edges touching a
//     new midpoint vertex pay the greedy search. The extension depends only
//     on the meshes and the previous coloring, so rebuilt engines stay
//     bitwise deterministic across worker counts.
//   - The parked worker pool is untouched: no goroutines are spawned or
//     joined, and the engine's perf accumulator keeps accumulating.
//   - The layout — the refined mesh's edges, normals and boundary faces
//     permuted into the extended coloring's order, and the adjacency —
//     the discretization scratch, SoA blocks, residual array and norm
//     partials grow in place when capacity (reserved with 25% headroom)
//     allows; after the first epoch or two of an adaptation run these are
//     pure re-slices. The mesh-shared layout an engine starts on is never
//     written: the first Rebuild moves the engine to one it owns, and the
//     layout of an extended coloring is never memoised on the mesh.
//   - No coloring verification pass runs — ExtendGreedy's output is
//     correct by construction (unit-tested), unlike caller-provided
//     colorings in NewColored.
//
// The source mesh's coloring is not retained anywhere: ExtendGreedy looks
// old colors up by vertex pair, so the view's edge list under its
// identity-run coloring is the previous coloring. Only the boundary-face
// coloring and the chunk tables are rebuilt from scratch; both are linear
// in the mesh. Rebuild returns the number of edges that kept their previous
// color. On error the solver is unchanged and still valid on its old mesh.
func (s *Solver) Rebuild(m *mesh.Mesh, p euler.Params) (reusedColors int, err error) {
	le := s.le
	ec, reused, err := color.ExtendGreedy(m.NV(), m.Edges, le.lay.edges, le.lay.view.Edges)
	if err != nil {
		return 0, fmt.Errorf("smsolver: rebuild edge coloring: %w", err)
	}
	fc, err := color.GreedyFaces(m.NV(), faceTriples(m))
	if err != nil {
		return 0, fmt.Errorf("smsolver: rebuild face coloring: %w", err)
	}

	// Past this point nothing can fail: mutate the level engine in place.
	if !le.ownLay {
		le.lay, le.ownLay = &layout{view: &mesh.Mesh{}}, true
	}
	le.lay.permute(m, ec, fc)
	le.d.Retarget(le.lay.view, p)

	nv := m.NV()
	// Resize preserves no contents; the accumulators among these are zeroed
	// by the fused stage sweeps before every read, but clear them anyway so
	// a rebuild never leaks state from the previous mesh.
	for _, b := range []*euler.StateSoA{le.wS, le.w0S, le.convS, le.dissS, le.resS, le.laplS} {
		b.Resize(nv)
		b.ZeroRange(0, nv)
	}
	le.res = euler.Grow(le.res, nv)
	le.normPartial = euler.Grow(le.normPartial, (nv+normBlock-1)/normBlock)
	le.buildSpans(s.NWorkers)
	le.chargeFlops()
	return reused, nil
}
