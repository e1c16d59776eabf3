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
// fine mesh alone; a multigrid kind at one level runs a degenerate
// single-grid cycle).
type Engine struct {
	solver.Config
	Levels int
}

func (e Engine) String() string {
	switch e.Kind {
	case solver.KindSingle, "":
		return "single"
	case solver.KindSM:
		return fmt.Sprintf("sm/w%d", e.Workers)
	case solver.KindMG:
		return fmt.Sprintf("mg/l%d", e.Levels)
	default:
		return fmt.Sprintf("%s/w%d/l%d", e.Kind, e.Workers, e.Levels)
	}
}

// Engines returns the verification panel for sc: the sequential engine,
// the pooled engine at several worker counts, and the multigrid engines,
// which run V-cycles. Unsteady scenarios cap the multigrid engines at one
// level, where a cycle is exactly one time-accurate fine-grid step.
func Engines(sc *scenario.Scenario) []Engine {
	levels := sc.MaxLevels
	return []Engine{
		{Config: solver.Config{Kind: solver.KindSingle}},
		{Config: solver.Config{Kind: solver.KindSM, Workers: 1}},
		{Config: solver.Config{Kind: solver.KindSM, Workers: 2}},
		{Config: solver.Config{Kind: solver.KindSM, Workers: 8}},
		{Config: solver.Config{Kind: solver.KindMG, Gamma: 1}, Levels: levels},
		{Config: solver.Config{Kind: solver.KindSMMG, Workers: 2, Gamma: 1}, Levels: levels},
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
