package tables

import (
	"fmt"
	"strings"

	"eul3d/internal/dmsolver"
	"eul3d/internal/euler"
	"eul3d/internal/flops"
	"eul3d/internal/graph"
	"eul3d/internal/machine"
	"eul3d/internal/multigrid"
	"eul3d/internal/partition"
)

// DeltaRow is one line of Tables 2a-2c.
type DeltaRow struct {
	Nodes  int
	CommS  float64
	CompS  float64
	TotalS float64
	MFlops float64

	// Diagnostics not printed in the paper's tables but reported in the
	// text: total message/byte volume per cycle.
	MsgsPerCycle  int64
	BytesPerCycle int64
}

// DeltaTable is a regenerated Table 2a, 2b or 2c.
type DeltaTable struct {
	Strategy Strategy
	Config   Config
	FineNV   int
	Method   partition.Method
	Rows     []DeltaRow
}

// Table2 regenerates Table 2a (single grid), 2b (V-cycle) or 2c (W-cycle):
// Touchstone Delta communication/computation/total seconds per cfg.Cycles
// cycles and MFlops, for each node count. The communication volumes come
// from executing one real cycle of the distributed solver (real PARTI
// schedules on a real spectral partition); the seconds come from the Delta
// machine model.
func Table2(cfg Config, strategy Strategy, nodeCounts []int, method partition.Method, mach *machine.DeltaMachine) (*DeltaTable, error) {
	meshes, err := cfg.Meshes(strategy)
	if err != nil {
		return nil, err
	}
	t := &DeltaTable{Strategy: strategy, Config: cfg, FineNV: meshes[0].NV(), Method: method}

	g, err := graph.FromEdges(meshes[0].NV(), meshes[0].Edges)
	if err != nil {
		return nil, err
	}
	p := euler.DefaultParams(cfg.Mach, cfg.AlphaDeg)

	for _, nodes := range nodeCounts {
		part, err := partition.Partition(g, meshes[0].X, nodes, method, cfg.Seed)
		if err != nil {
			return nil, err
		}
		parts := make([][]int32, len(meshes))
		parts[0] = part
		var dm *dmsolver.Solver
		if strategy == SingleGrid {
			dm, err = dmsolver.NewSingle(meshes[0], part, nodes, p)
		} else {
			dm, err = dmsolver.NewMultigrid(meshes, parts, nodes, p, strategy.Gamma())
		}
		if err != nil {
			return nil, err
		}

		// Execute one real cycle to record the communication pattern.
		dm.Fabric.ResetStats()
		if _, err := dm.Cycle(); err != nil {
			return nil, err
		}
		phases := dm.Comm.GatherState + dm.Comm.ScatterState

		commMax := 0.0
		var totMsgs, totBytes int64
		for node := 0; node < nodes; node++ {
			sm, sb := dm.Fabric.Stats(node)
			rm, rb := dm.Fabric.RecvStats(node)
			ct := mach.CommTime(sm+rm, sb+rb, phases)
			if ct > commMax {
				commMax = ct
			}
			totMsgs += sm
			totBytes += sb
		}

		// Per-node computation from real per-node topology and the visit
		// counts of the strategy (a single grid is one level).
		steps := multigrid.Visits(len(meshes), strategy.Gamma())
		compMax := 0.0
		var totalFlops int64
		for node := 0; node < nodes; node++ {
			var f int64
			for l, lev := range dm.Levels {
				ne := int64(len(lev.Edges[node]))
				nbf := int64(len(lev.BFaces[node]))
				nv := int64(lev.Dist.Count(node))
				f += int64(steps[l]) * flops.Step(nv, ne, nbf, len(p.Stages), euler.DissipStages, p.NSmooth)
				if l < len(dm.Levels)-1 {
					nextLev := dm.Levels[l+1]
					neC := int64(len(nextLev.Edges[node]))
					nbfC := int64(len(nextLev.BFaces[node]))
					nvC := int64(nextLev.Dist.Count(node))
					per := flops.Residual(nv, ne, nbf) + flops.Residual(nvC, neC, nbfC) +
						flops.Transfer(nv, nvC) +
						int64(p.NSmooth)*(ne*flops.SmoothEdge+nv*flops.SmoothVert)
					f += int64(steps[l]) * per
				}
			}
			ct := mach.CompTime(f, true)
			if ct > compMax {
				compMax = ct
			}
			totalFlops += f
		}

		cycles := float64(cfg.Cycles)
		comm := commMax * cycles
		comp := compMax * cycles
		total := comm + comp
		t.Rows = append(t.Rows, DeltaRow{
			Nodes:         nodes,
			CommS:         comm,
			CompS:         comp,
			TotalS:        total,
			MFlops:        float64(totalFlops) * cycles / total / 1e6,
			MsgsPerCycle:  totMsgs,
			BytesPerCycle: totBytes,
		})
	}
	return t, nil
}

// String renders the table in the paper's layout.
func (t *DeltaTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Touchstone Delta speeds for EUL3D running %d %s cycles\n", t.Config.Cycles, t.Strategy)
	fmt.Fprintf(&b, "(fine mesh: %d points, %s partitioning)\n", t.FineNV, t.Method)
	fmt.Fprintf(&b, "%6s | %15s %13s %9s | %8s\n", "Nodes", "Communication", "Computation", "Total", "MFlops")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%6d | %15.1f %13.1f %9.1f | %8.0f\n", r.Nodes, r.CommS, r.CompS, r.TotalS, r.MFlops)
	}
	return b.String()
}
