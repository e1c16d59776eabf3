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
//   - The layout and chunk tables are rebuilt from m by the routine every
//     engine's come from (levelEngine.build), so a rebuilt engine is
//     bitwise a fresh one on m: nothing of the meshes the run passed
//     through on the way survives, which is what makes a resumed adaptive
//     run the uninterrupted one.
//   - The parked worker pool is untouched: no goroutines are spawned or
//     joined, and the engine's perf accumulator keeps accumulating.
//   - The layout's arrays, the chunk tables, the discretization scratch,
//     blocks and norm partials grow in place when capacity (reserved with
//     25% headroom) allows; a Rebuild to a mesh inside the headroom
//     allocates nothing.
//
// m must be a finished mesh. On error — an element list that is not over
// m's vertices — the engine has a half-filled layout and must only be
// Closed.
func (s *Solver) Rebuild(m *mesh.Mesh, p euler.Params) error {
	le := s.le
	nv := m.NV()
	le.normPartial = euler.Grow(le.normPartial, (nv+normBlock-1)/normBlock)
	if err := le.build(m, s.NWorkers); err != nil {
		return fmt.Errorf("smsolver: rebuild: %w", err)
	}
	le.d.Retarget(m, p)
	// Resize preserves no contents; the accumulators among these are zeroed
	// by the fused stage sweeps before every read, but clear them anyway so
	// a rebuild never leaks state from the previous mesh.
	for _, b := range [...]*euler.StateSoA{le.w0S, le.convS, le.dissS, le.resS, le.laplS} {
		b.Resize(nv)
		b.ZeroRange(0, nv)
	}
	le.chargeFlops()
	return nil
}
