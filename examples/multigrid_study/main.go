// Multigrid study: rerun the Figure 2 experiment — convergence histories
// of the single-grid scheme and the V- and W-cycle multigrid strategies on
// the same fine mesh — and print the per-cycle work units and memory
// overhead, reproducing the trade-off discussion of Sections 2.3 and 3.2.
package main

import (
	"fmt"
	"log"
	"math"

	"eul3d/internal/euler"
	"eul3d/internal/meshgen"
	"eul3d/internal/multigrid"
	"eul3d/internal/solver"
)

func main() {
	const cycles = 250
	spec := meshgen.DefaultChannel(32, 16, 12, 17)
	params := euler.DefaultParams(0.675, 0)

	type run struct {
		name    string
		history []float64
		work    float64
		mem     float64
	}
	var runs []run

	// Single grid, then V- and W-cycles over a 4-level non-nested sequence.
	for _, r := range []struct {
		name   string
		levels int
		c      solver.Config
	}{
		{"single grid", 1, solver.Config{}},
		{"V-cycle", 4, solver.Config{Gamma: 1}},
		{"W-cycle", 4, solver.Config{Gamma: 2}},
	} {
		meshes, err := meshgen.Sequence(spec, r.levels)
		if err != nil {
			log.Fatal(err)
		}
		st, err := solver.Open(meshes, params, r.c)
		if err != nil {
			log.Fatal(err)
		}
		res, err := st.Run(solver.Options{MaxCycles: cycles})
		if err != nil {
			log.Fatal(err)
		}
		work, mem := 1.0, 0.0
		if st.MG != nil {
			work, mem = st.MG.WorkUnits(), multigrid.MemoryOverhead(meshes)
		}
		runs = append(runs, run{r.name, res.History, work, mem})
	}

	fmt.Printf("convergence history (normalized density residual), %d cycles:\n\n", cycles)
	fmt.Printf("%8s", "cycle")
	for _, r := range runs {
		fmt.Printf(" %14s", r.name)
	}
	fmt.Println()
	for c := 0; c < cycles; c += 25 {
		fmt.Printf("%8d", c)
		for _, r := range runs {
			fmt.Printf(" %14.3e", r.history[c]/r.history[0])
		}
		fmt.Println()
	}

	fmt.Println("\nsummary:")
	for _, r := range runs {
		last := r.history[len(r.history)-1] / r.history[0]
		orders := -math.Log10(last)
		fmt.Printf("  %-12s %.1f orders reduced, %.2f work units/cycle", r.name, orders, r.work)
		if r.mem > 0 {
			fmt.Printf(", +%.0f%% memory", 100*r.mem)
		}
		fmt.Println()
	}
	fmt.Println("\nThe paper's headline (Section 2.3): both multigrid cycles buy close to")
	fmt.Println("an order of magnitude in convergence for <2x the work per cycle.")
}
