// Package verify runs scenario presets through the repository's solver
// engines and checks their diagnostics against the analytic references.
// It is the physics counterpart of the bitwise conformance suite: where
// conformance pins every engine to identical floating-point output, verify
// pins that output to the right answer. It lives below cmd so both the
// test suite and future tools can drive the same panel.
package verify

import (
	"fmt"

	"eul3d/internal/scenario"
	"eul3d/internal/solver"
)

// Engine names one solver configuration of the panel: the engine, and the
// level count of the scenario's mesh sequence it runs on (0 or 1 is the
// fine mesh alone; a multigrid at one level runs a degenerate single-grid
// cycle).
type Engine struct {
	solver.Config
	Levels int
}

// String spells e by the wire name it answers to: single or mg with the
// worker count unset, sm or smmg with it set.
func (e Engine) String() string {
	switch {
	case e.Gamma == 0 && e.Workers == 0:
		return "single"
	case e.Gamma == 0:
		return fmt.Sprintf("sm/w%d", e.Workers)
	case e.Workers == 0:
		return fmt.Sprintf("mg/l%d", e.Levels)
	default:
		return fmt.Sprintf("smmg/w%d/l%d", e.Workers, e.Levels)
	}
}

// Engines returns the verification panel for sc: the sequential engine,
// the pooled engine at several worker counts, and the multigrid engines,
// which run V-cycles. Unsteady scenarios cap the multigrid engines at one
// level, where a cycle is exactly one time-accurate fine-grid step.
func Engines(sc *scenario.Scenario) []Engine {
	levels := sc.MaxLevels
	return []Engine{
		{},
		{Config: solver.Config{Workers: 1}},
		{Config: solver.Config{Workers: 2}},
		{Config: solver.Config{Workers: 8}},
		{Config: solver.Config{Gamma: 1}, Levels: levels},
		{Config: solver.Config{Workers: 2, Gamma: 1}, Levels: levels},
	}
}

// Run executes scenario sc on engine e and returns the resulting
// diagnostics alongside the raw solver result. The caller decides whether
// to Check the diagnostics.
func Run(sc *scenario.Scenario, e Engine) (scenario.Diagnostics, *solver.Result, error) {
	levels := e.Levels
	if levels < 1 {
		levels = 1
	}
	meshes, err := sc.Meshes(levels)
	if err != nil {
		return scenario.Diagnostics{}, nil, fmt.Errorf("verify: %s meshes: %w", sc.Name, err)
	}
	p := sc.Params()

	st, err := solver.Open(meshes, p, e.Config)
	if err != nil {
		return scenario.Diagnostics{}, nil, fmt.Errorf("verify: %s engine %s: %w", sc.Name, e, err)
	}
	defer st.Close()

	if err := st.SetInitial(sc.InitialState(meshes[0])); err != nil {
		return scenario.Diagnostics{}, nil, fmt.Errorf("verify: %s initial state: %w", sc.Name, err)
	}
	res, err := st.Run(solver.Options{MaxCycles: sc.Steps, Tolerance: sc.Tol})
	if err != nil {
		return scenario.Diagnostics{}, nil, fmt.Errorf("verify: %s run on %s: %w", sc.Name, e, err)
	}
	return sc.Diagnose(meshes[0], res.FineSolution, res.FinalNorm), res, nil
}
