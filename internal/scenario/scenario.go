// Package scenario is a registry of named flow presets — mesh generation,
// initial and boundary state, solver parameters, and expected diagnostics —
// that pin the solver's physics against analytic references. The steady
// transonic-channel workloads elsewhere in the repo exercise convergence
// and parallel conformance; the presets here exercise correctness: a Sod
// shock tube checked against the exact Riemann solution (riemann.go), a
// supersonic compression ramp checked against the oblique-shock relations
// (oblique.go), and a smooth unsteady advection case checked against exact
// transport. The package deliberately depends only on euler/mesh/meshgen so
// that every entry layer (cmd/eul3d, internal/serve, the verify harness)
// can import it without cycles.
package scenario

import (
	"fmt"
	"math"
	"sort"

	"eul3d/internal/euler"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
)

// Scenario is one named preset. The exported fields parameterize how the
// entry layers drive the solver; the unexported hooks define the physics.
type Scenario struct {
	Name        string
	Description string

	// Unsteady marks time-accurate presets: fixed global dt, no residual
	// averaging, Steps is the exact number of time steps (Tol is zero), and
	// multigrid engines must run with a single level (a 1-level cycle is
	// exactly one fine-grid step, so the "mg"/"smmg" engine names remain
	// usable and bitwise-equal to the single grid).
	Unsteady bool

	Steps     int     // default cycle/step count
	Tol       float64 // steady convergence tolerance (0 = run all Steps)
	MaxLevels int     // largest multigrid depth that makes sense (1 = none)

	// L1Tol is the committed bound on the volume-weighted L1 density error
	// against the analytic reference; zero when the preset has none.
	L1Tol float64

	spec   meshgen.ChannelSpec
	params euler.Params

	init         func(g euler.Gas, m *mesh.Mesh) []euler.State
	exactDensity func(g euler.Gas, m *mesh.Mesh) []float64
	probe        func(g euler.Gas, m *mesh.Mesh, w []euler.State) (got, want, relTol float64, label string)
}

// Params returns a copy of the preset's solver parameters.
func (s *Scenario) Params() euler.Params { return s.params }

// Spec returns the preset's fine-level mesh specification.
func (s *Scenario) Spec() meshgen.ChannelSpec { return s.spec }

// Meshes generates the preset's multigrid hierarchy, finest first. levels
// is clamped to [1, MaxLevels].
func (s *Scenario) Meshes(levels int) ([]*mesh.Mesh, error) {
	if levels < 1 {
		levels = 1
	}
	if levels > s.MaxLevels {
		levels = s.MaxLevels
	}
	return meshgen.Sequence(s.spec, levels)
}

// InitialState returns the preset's initial condition on mesh m.
func (s *Scenario) InitialState(m *mesh.Mesh) []euler.State {
	return s.init(s.params.Gas, m)
}

// Diagnostics summarizes one finished scenario run. It is committed as the
// golden regression record (internal/scenario/testdata) and returned by
// the serve layer for scenario jobs.
type Diagnostics struct {
	Scenario  string  `json:"scenario"`
	FinalNorm float64 `json:"final_norm"` // last residual norm of the run

	// L1Density is the volume-weighted L1 density error against the
	// analytic reference, or -1 when the preset has none.
	L1Density float64 `json:"l1_density"`

	Min [euler.NVar]float64 `json:"min"` // per-field minimum over vertices
	Max [euler.NVar]float64 `json:"max"` // per-field maximum over vertices

	MinPressure float64 `json:"min_pressure"`

	// Probe fields are set by presets with a pointwise analytic check
	// (e.g. the wedge's post-shock pressure plateau).
	ProbeLabel string  `json:"probe_label,omitempty"`
	ProbeGot   float64 `json:"probe_got,omitempty"`
	ProbeWant  float64 `json:"probe_want,omitempty"`
	ProbeTol   float64 `json:"probe_tol,omitempty"` // relative tolerance
}

// Diagnose computes the diagnostics of solution w on mesh m. finalNorm is
// the last residual norm reported by the solver.
func (s *Scenario) Diagnose(m *mesh.Mesh, w []euler.State, finalNorm float64) Diagnostics {
	d := Diagnostics{Scenario: s.Name, FinalNorm: finalNorm, L1Density: -1, MinPressure: math.Inf(1)}
	for k := 0; k < euler.NVar; k++ {
		d.Min[k] = math.Inf(1)
		d.Max[k] = math.Inf(-1)
	}
	g := s.params.Gas
	for _, wi := range w {
		for k := 0; k < euler.NVar; k++ {
			d.Min[k] = math.Min(d.Min[k], wi[k])
			d.Max[k] = math.Max(d.Max[k], wi[k])
		}
		d.MinPressure = math.Min(d.MinPressure, g.Pressure(wi))
	}
	if s.exactDensity != nil {
		d.L1Density = L1Density(m, w, s.exactDensity(g, m))
	}
	if s.probe != nil {
		d.ProbeGot, d.ProbeWant, d.ProbeTol, d.ProbeLabel = s.probe(g, m, w)
	}
	return d
}

// Check verifies the physics assertions of diagnostics d: finite fields,
// positive density and pressure, the committed L1 bound, and the preset's
// probe (when present). It returns nil when every assertion holds.
func (s *Scenario) Check(d Diagnostics) error {
	for k := 0; k < euler.NVar; k++ {
		if math.IsNaN(d.Min[k]) || math.IsInf(d.Min[k], 0) || math.IsInf(d.Max[k], 0) {
			return fmt.Errorf("scenario %s: field %d not finite (min=%g max=%g)", s.Name, k, d.Min[k], d.Max[k])
		}
	}
	if !(d.Min[0] > 0) {
		return fmt.Errorf("scenario %s: non-positive density %g", s.Name, d.Min[0])
	}
	if !(d.MinPressure > 0) {
		return fmt.Errorf("scenario %s: non-positive pressure %g", s.Name, d.MinPressure)
	}
	if s.L1Tol > 0 && !(d.L1Density <= s.L1Tol) {
		return fmt.Errorf("scenario %s: L1 density error %.6g exceeds committed tolerance %g", s.Name, d.L1Density, s.L1Tol)
	}
	if d.ProbeLabel != "" {
		if rel := math.Abs(d.ProbeGot-d.ProbeWant) / math.Abs(d.ProbeWant); !(rel <= d.ProbeTol) {
			return fmt.Errorf("scenario %s: probe %q = %.6g, want %.6g within %.0f%% (off by %.1f%%)",
				s.Name, d.ProbeLabel, d.ProbeGot, d.ProbeWant, 100*d.ProbeTol, 100*rel)
		}
	}
	return nil
}

// L1Density returns the volume-weighted L1 density error of w against the
// per-vertex reference densities: sum_i V_i |rho_i - ref_i| / sum_i V_i.
func L1Density(m *mesh.Mesh, w []euler.State, ref []float64) float64 {
	num, den := 0.0, 0.0
	for i := range w {
		num += m.Vol[i] * math.Abs(w[i][0]-ref[i])
		den += m.Vol[i]
	}
	return num / den
}

var registry = map[string]*Scenario{}

func register(s *Scenario) *Scenario {
	if _, dup := registry[s.Name]; dup {
		panic("scenario: duplicate name " + s.Name)
	}
	registry[s.Name] = s
	return s
}

// Get returns the named scenario, or an error listing the valid names.
func Get(name string) (*Scenario, error) {
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, Names())
	}
	return s, nil
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
