package tables

import (
	"fmt"
	"strings"

	"eul3d/internal/color"
	"eul3d/internal/euler"
	"eul3d/internal/flops"
	"eul3d/internal/machine"
	"eul3d/internal/mesh"
	"eul3d/internal/multigrid"
)

// C90Row is one line of Tables 1a-1c.
type C90Row struct {
	CPUs   int
	WallS  float64
	CPUSec float64
	MFlops float64
}

// C90Table is a regenerated Table 1a, 1b or 1c.
type C90Table struct {
	Strategy Strategy
	Config   Config
	FineNV   int
	FineNE   int
	Rows     []C90Row
}

// levelWork holds the parallel-region decomposition of one grid level's
// loops, built from its real edge coloring.
type levelWork struct {
	nv, ne, nbf int64
	colorSizes  []int64 // edges per color group
}

func buildLevelWork(m *mesh.Mesh) (*levelWork, error) {
	col, err := color.Greedy(m.NV(), m.Edges)
	if err != nil {
		return nil, err
	}
	lw := &levelWork{
		nv:  int64(m.NV()),
		ne:  int64(m.NE()),
		nbf: int64(len(m.BFaces)),
	}
	for _, s := range col.GroupSizes() {
		lw.colorSizes = append(lw.colorSizes, int64(s))
	}
	return lw, nil
}

// edgeRegions returns one region per color group with the given per-edge
// flop cost — the vector/parallel execution unit of Section 3.1.
func (lw *levelWork) edgeRegions(flopsPer int64) []machine.Region {
	out := make([]machine.Region, 0, len(lw.colorSizes))
	for _, n := range lw.colorSizes {
		out = append(out, machine.Region{N: n, FlopsPer: flopsPer})
	}
	return out
}

// stepRegions enumerates the parallel regions of one multistage time step
// of the scheme p.
func (lw *levelWork) stepRegions(p *euler.Params) []machine.Region {
	var r []machine.Region
	s := int64(len(p.Stages))
	// Per stage: pressures, convective edge loop, boundary loop, residual
	// combine + update.
	for q := int64(0); q < s; q++ {
		r = append(r, machine.Region{N: lw.nv, FlopsPer: flops.PresVert})
		r = append(r, lw.edgeRegions(flops.ConvEdge)...)
		r = append(r, machine.Region{N: lw.nbf, FlopsPer: flops.ConvBFace})
		// Residual smoothing: per sweep an edge loop and a vertex loop.
		for sw := 0; sw < p.NSmooth; sw++ {
			r = append(r, lw.edgeRegions(flops.SmoothEdge)...)
			r = append(r, machine.Region{N: lw.nv, FlopsPer: flops.SmoothVert})
		}
		r = append(r, machine.Region{N: lw.nv, FlopsPer: flops.StageVert})
	}
	// Dissipation on the first DissipStages stages: two edge passes + sensor.
	for q := 0; q < euler.DissipStages; q++ {
		r = append(r, lw.edgeRegions(flops.Diss1Edge)...)
		r = append(r, machine.Region{N: lw.nv, FlopsPer: flops.NuVert})
		r = append(r, lw.edgeRegions(flops.Diss2Edge)...)
	}
	// Local time steps.
	r = append(r, lw.edgeRegions(flops.DtEdge)...)
	r = append(r, machine.Region{N: lw.nbf, FlopsPer: flops.DtBFace})
	r = append(r, machine.Region{N: lw.nv, FlopsPer: flops.DtVertex})
	return r
}

// residualRegions enumerates the regions of one full residual evaluation
// (used when transferring to a coarser grid).
func (lw *levelWork) residualRegions() []machine.Region {
	var r []machine.Region
	r = append(r, machine.Region{N: lw.nv, FlopsPer: flops.PresVert})
	r = append(r, lw.edgeRegions(flops.ConvEdge)...)
	r = append(r, machine.Region{N: lw.nbf, FlopsPer: flops.ConvBFace})
	r = append(r, lw.edgeRegions(flops.Diss1Edge)...)
	r = append(r, machine.Region{N: lw.nv, FlopsPer: flops.NuVert})
	r = append(r, lw.edgeRegions(flops.Diss2Edge)...)
	return r
}

// cycleRegions enumerates all parallel regions of one solver cycle of the
// scheme p for the given strategy over the level sequence (one level for a
// single grid).
func cycleRegions(levels []*levelWork, strategy Strategy, p *euler.Params) []machine.Region {
	var out []machine.Region
	nlev := len(levels)
	steps := multigrid.Visits(nlev, strategy.Gamma())
	for l, lw := range levels {
		for k := 0; k < steps[l]; k++ {
			out = append(out, lw.stepRegions(p)...)
		}
	}
	// Transfers and forcing: each non-coarsest-level visit computes the
	// level residual, the restricted residual/variables, the coarse
	// residual (for the forcing), and the correction interpolation +
	// smoothing on the receiving level.
	for l := 0; l < nlev-1; l++ {
		fine, coarse := levels[l], levels[l+1]
		for k := 0; k < steps[l]; k++ {
			out = append(out, fine.residualRegions()...)
			out = append(out, coarse.residualRegions()...)
			out = append(out, machine.Region{N: coarse.nv, FlopsPer: flops.XferVert}) // w restriction
			out = append(out, machine.Region{N: fine.nv, FlopsPer: flops.XferVert})   // residual scatter
			out = append(out, machine.Region{N: fine.nv, FlopsPer: flops.XferVert})   // correction prolongation
			for sw := 0; sw < p.NSmooth; sw++ {
				out = append(out, fine.edgeRegions(flops.SmoothEdge)...)
				out = append(out, machine.Region{N: fine.nv, FlopsPer: flops.SmoothVert})
			}
		}
	}
	return out
}

// Table1 regenerates Table 1a (single grid), 1b (V-cycle) or 1c (W-cycle):
// Y-MP C90 wall-clock seconds, total CPU seconds and MFlops for cfg.Cycles
// cycles on 1, 2, 4, 8 and 16 processors.
func Table1(cfg Config, strategy Strategy, mach *machine.SharedMachine) (*C90Table, error) {
	meshes, err := cfg.Meshes(strategy)
	if err != nil {
		return nil, err
	}
	var lws []*levelWork
	for _, m := range meshes {
		lw, err := buildLevelWork(m)
		if err != nil {
			return nil, err
		}
		lws = append(lws, lw)
	}
	p := euler.DefaultParams(cfg.Mach, cfg.AlphaDeg)
	regions := cycleRegions(lws, strategy, &p)
	totalFlops := machine.Flops(regions)

	t := &C90Table{
		Strategy: strategy,
		Config:   cfg,
		FineNV:   meshes[0].NV(),
		FineNE:   meshes[0].NE(),
	}
	for _, p := range []int{1, 2, 4, 8, 16} {
		wall, cpu := mach.Time(regions, p)
		wall *= float64(cfg.Cycles)
		cpu *= float64(cfg.Cycles)
		t.Rows = append(t.Rows, C90Row{
			CPUs:   p,
			WallS:  wall,
			CPUSec: cpu,
			MFlops: float64(totalFlops) * float64(cfg.Cycles) / wall / 1e6,
		})
	}
	return t, nil
}

// String renders the table in the paper's layout.
func (t *C90Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Y-MP C90 speeds for EUL3D running %d %s cycles\n", t.Config.Cycles, t.Strategy)
	fmt.Fprintf(&b, "(fine mesh: %d points, %d edges)\n", t.FineNV, t.FineNE)
	fmt.Fprintf(&b, "%6s %12s %10s %8s\n", "CPUs", "Wall Clock", "CPU sec.", "MFlops")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%6d %12.1f %10.1f %8.0f\n", r.CPUs, r.WallS, r.CPUSec, r.MFlops)
	}
	return b.String()
}

// Speedup returns wall-clock speedup of the last row relative to the first.
func (t *C90Table) Speedup() float64 {
	return t.Rows[0].WallS / t.Rows[len(t.Rows)-1].WallS
}

// CPUInflation returns the relative growth of total CPU seconds from 1 CPU
// to the maximum CPU count (the multitasking overhead the paper reports as
// roughly 20%).
func (t *C90Table) CPUInflation() float64 {
	return t.Rows[len(t.Rows)-1].CPUSec/t.Rows[0].CPUSec - 1
}
