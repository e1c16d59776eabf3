package smsolver

import (
	"fmt"

	"eul3d/internal/euler"
	"eul3d/internal/mesh"
)

// Rebuild retargets the solver at a new mesh — in practice one produced by
// selective refinement of the current mesh — without tearing the engine
// down. It is the path the adaptation driver takes between epochs:
//
//   - The layout is rebuilt from m by the routine every engine's layout
//     comes from (layout.fill; fillInOrder for NewSequential's, whose view
//     stays the mesh itself), so a rebuilt engine is bitwise a fresh one
//     on m: nothing of the meshes the run passed through on the way
//     survives, which is what makes a resumed adaptive run the
//     uninterrupted one.
//   - The parked worker pool is untouched: no goroutines are spawned or
//     joined, and the engine's perf accumulator keeps accumulating.
//   - The layout's arrays, the coloring scratch, the chunk tables, the
//     discretization scratch, blocks and norm partials
//     grow in place when capacity (reserved with 25% headroom) allows; a
//     Rebuild to a mesh inside the headroom allocates nothing. The
//     mesh-shared layout an engine starts on is never written: the first
//     Rebuild moves the engine to one it owns.
//
// m must be a finished mesh. On error — an element list that is not over
// m's vertices — an engine past its first Rebuild has a half-filled layout
// and must only be Closed.
func (s *Solver) Rebuild(m *mesh.Mesh, p euler.Params) error {
	le := s.le
	lay := le.lay
	if !le.ownLay {
		lay = &layout{view: &mesh.Mesh{}}
	}
	if lay.inOrder {
		lay.fillInOrder(m)
	} else if err := lay.fill(m); err != nil {
		return fmt.Errorf("smsolver: rebuild: %w", err)
	}
	le.lay, le.ownLay = lay, true
	le.d.Retarget(lay.view, p)

	nv := m.NV()
	// Resize preserves no contents; the accumulators among these are zeroed
	// by the fused stage sweeps before every read, but clear them anyway so
	// a rebuild never leaks state from the previous mesh.
	for _, b := range [...]*euler.StateSoA{le.w0S, le.convS, le.dissS, le.resS, le.laplS} {
		b.Resize(nv)
		b.ZeroRange(0, nv)
	}
	le.normPartial = euler.Grow(le.normPartial, (nv+normBlock-1)/normBlock)
	le.buildSpans(s.NWorkers)
	le.chargeFlops()
	return nil
}
