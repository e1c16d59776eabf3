package multigrid

import (
	"fmt"
	"strings"

	"eul3d/internal/mesh"
)

// EventKind distinguishes the two operations plotted in Figure 1 of the
// paper: Euler time-steps (E) and interpolations back to a finer grid (I).
type EventKind uint8

const (
	// EulerStep is a multistage time-step on a grid level.
	EulerStep EventKind = iota
	// Interpolate is a coarse-to-fine correction interpolation.
	Interpolate
)

// Event is one node of a multigrid cycle diagram. Level 0 is the finest
// grid. Fresh marks a step that directly follows the restriction onto its
// level (Levels.Step); it does not show in the diagram.
type Event struct {
	Kind  EventKind
	Level int
	Fresh bool
}

// String renders the event as in Figure 1: E<level> or I<level>.
func (e Event) String() string {
	if e.Kind == EulerStep {
		return fmt.Sprintf("E%d", e.Level)
	}
	return fmt.Sprintf("I%d", e.Level)
}

// recorder is a Levels that runs nothing and writes down the steps and
// interpolations Cycle asks of it.
type recorder []Event

func (r *recorder) Step(l int, fresh bool) (float64, error) {
	*r = append(*r, Event{EulerStep, l, fresh})
	return 0, nil
}
func (r *recorder) Restrict(int) error  { return nil }
func (r *recorder) Correct(l int) error { *r = append(*r, Event{Interpolate, l, false}); return nil }

// Schedule enumerates the time-steps and interpolations of one cycle with
// the given number of levels and cycle index (1 = V, 2 = W): the hooks
// Cycle calls, recorded. This regenerates the structure of Figure 1.
func Schedule(levels, gamma int) []Event {
	var r recorder
	Cycle(&r, 0, levels, gamma) // a recorder never fails
	return r
}

// Visits returns how many time-steps each of n levels performs in one cycle
// of index gamma: the Step calls of Cycle, counted.
func Visits(n, gamma int) []int {
	v := make([]int, n)
	for _, e := range Schedule(n, gamma) {
		if e.Kind == EulerStep {
			v[e.Level]++
		}
	}
	return v
}

// FormatSchedule renders a schedule compactly, e.g.
// "E0 E1 E2 E3 I2 E2 E3 I2 I1 ... I0".
func FormatSchedule(ev []Event) string {
	parts := make([]string, len(ev))
	for i, e := range ev {
		parts[i] = e.String()
	}
	return strings.Join(parts, " ")
}

// Diagram renders the cycle as a small ASCII picture with one row per grid
// level (finest on top), in the spirit of Figure 1.
func Diagram(levels, gamma int) string {
	ev := Schedule(levels, gamma)
	var b strings.Builder
	for l := 0; l < levels; l++ {
		for _, e := range ev {
			switch {
			case e.Level == l && e.Kind == EulerStep:
				b.WriteString(" E")
			case e.Level == l && e.Kind == Interpolate:
				b.WriteString(" I")
			default:
				b.WriteString("  ")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// levelWords estimates the storage of one solver level on m in 8-byte
// words: mesh arrays (coordinates, dual volumes, edge endpoints and
// normals, boundary faces), solver state and scratch (Disc + workspace +
// the level's solution/residual arrays), and optionally the FAS forcing
// array.
func levelWords(m *mesh.Mesh, withForcing bool) float64 {
	nv := float64(m.NV())
	ne := float64(m.NE())
	nbf := float64(len(m.BFaces))
	words := nv*(3+1) + ne*(1+3) + nbf*(1.5+3) // mesh (edge pair packs into 1 word)
	words += nv * (4 + 1)                      // pres/lam/sensor/den + Dt
	words += nv * 5 * 3                        // lapl, smooth, rhs
	words += nv * 5 * 4                        // step workspace w0/conv/diss/res
	words += nv * 5 * 4                        // W, WSaved, Res, Corr
	if withForcing {
		words += nv * 5
	}
	return words
}

// MemoryOverhead returns the fractional extra storage of a multigrid
// solver over meshes (finest first) relative to a single-grid solver on
// the finest mesh: all coarser grid levels with their solver arrays, plus
// the inter-grid transfer coefficients (4 addresses + 4 weights per vertex
// in each direction). The paper reports roughly a 33% increase. It is a
// model of the storage, a function of the meshes' sizes alone, so every
// engine on the same sequence reports the same figure.
func MemoryOverhead(meshes []*mesh.Mesh) float64 {
	base := levelWords(meshes[0], false)
	extra := 0.0
	for l := 1; l < len(meshes); l++ {
		extra += levelWords(meshes[l], true)
		// Transfer coefficients: the restriction is sized by this level's
		// vertices, the prolongation by the finer level's (4 int32 + 4
		// float64 per vertex each, i.e. 6 words).
		extra += 6 * float64(meshes[l].NV())
		extra += 6 * float64(meshes[l-1].NV())
	}
	return extra / base
}
