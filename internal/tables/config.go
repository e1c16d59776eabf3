// Package tables is the benchmark harness that regenerates every table and
// figure of the paper's evaluation: Tables 1a-1c (Cray Y-MP C90 speeds for
// 100 cycles of the single-grid, V-cycle and W-cycle strategies on 1-16
// CPUs), Tables 2a-2c (Intel Touchstone Delta speeds on 256 and 512 nodes,
// with the communication/computation split), Figure 1 (multigrid cycle
// structures), Figure 2 (convergence histories), Figure 3 (mesh sequence
// statistics) and Figure 4 (Mach contours).
//
// The solver kernels, edge colorings, partitions and communication
// schedules are the real ones; the seconds come from the calibrated
// machine models in internal/machine (see DESIGN.md for the substitution
// argument). The default workload is a scaled-down version of the paper's
// aircraft case — the transonic bump channel at the paper's flow condition
// (Mach 0.768, 1.116 degrees) — because the original 804k-point mesh and
// its generator are not available.
package tables

import (
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
)

// Strategy selects the solution strategy of a table row.
type Strategy int

const (
	// SingleGrid runs the fine grid only (Tables 1a, 2a).
	SingleGrid Strategy = iota
	// VCycle is multigrid with cycle index 1 (Tables 1b, 2b).
	VCycle
	// WCycle is multigrid with cycle index 2 (Tables 1c, 2c).
	WCycle
)

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	switch s {
	case SingleGrid:
		return "single grid"
	case VCycle:
		return "multigrid V cycle"
	case WCycle:
		return "multigrid W cycle"
	}
	return "unknown"
}

// Gamma returns the multigrid cycle index of the strategy (0 for single
// grid).
func (s Strategy) Gamma() int {
	switch s {
	case VCycle:
		return 1
	case WCycle:
		return 2
	}
	return 0
}

// Config describes the workload of a table run.
type Config struct {
	NX, NY, NZ int     // fine-mesh cells
	Levels     int     // multigrid levels
	Mach       float64 // freestream Mach number
	AlphaDeg   float64 // angle of attack
	Seed       int64
	Cycles     int // cycles per run (the paper reports 100)
}

// DefaultConfig is the default table workload: a ~152k-point fine grid
// (larger than the paper's second-finest mesh divided by four) with a
// 4-level sequence, the paper's flow condition, 100 cycles. Scale up with
// cmd/benchtables -scale to approach the paper's 804k-point mesh.
func DefaultConfig() Config {
	return Config{
		NX: 96, NY: 48, NZ: 32,
		Levels:   4,
		Mach:     0.768,
		AlphaDeg: 1.116,
		Seed:     17,
		Cycles:   100,
	}
}

// Scale multiplies the linear mesh resolution by f (f=2 gives 8x the
// points).
func (c Config) Scale(f float64) Config {
	c.NX = int(float64(c.NX) * f)
	c.NY = int(float64(c.NY) * f)
	c.NZ = int(float64(c.NZ) * f)
	return c
}

// Meshes generates the multigrid sequence for the configuration (just the
// fine mesh for SingleGrid).
func (c Config) Meshes(strategy Strategy) ([]*mesh.Mesh, error) {
	levels := c.Levels
	if strategy == SingleGrid {
		levels = 1
	}
	return meshgen.Sequence(meshgen.DefaultChannel(c.NX, c.NY, c.NZ, c.Seed), levels)
}
