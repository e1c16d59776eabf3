// Quickstart: generate a small transonic bump-channel mesh, solve the
// Euler equations with W-cycle multigrid, and print the convergence
// history — the minimal end-to-end use of the library.
package main

import (
	"fmt"
	"log"
	"os"

	"eul3d/internal/euler"
	"eul3d/internal/meshgen"
	"eul3d/internal/solver"
)

func main() {
	// 1. A multigrid sequence of non-nested tetrahedral meshes over the
	//    bump channel: 3 levels, finest 16x8x6 cells.
	spec := meshgen.DefaultChannel(16, 8, 6, 1)
	spec.BumpHeight = 0.03 // a gentle bump this coarse mesh resolves well
	meshes, err := meshgen.Sequence(spec, 3)
	if err != nil {
		log.Fatal(err)
	}
	for l, m := range meshes {
		fmt.Printf("level %d: %6d points, %7d tets, %7d edges\n", l, m.NV(), m.NT(), m.NE())
	}

	// 2. The paper's scheme, here at a subcritical Mach 0.5 so this small
	//    demonstration mesh converges crisply (the transonic_bump example
	//    runs the paper's shocked condition on a finer grid).
	params := euler.DefaultParams(0.5, 0)

	// 3. A W-cycle multigrid steady solver.
	st, err := solver.Open(meshes, params, solver.Config{Gamma: 2})
	if err != nil {
		log.Fatal(err)
	}
	res, err := st.Run(solver.Options{
		MaxCycles: 1200,
		Tolerance: 1e-5,
		LogEvery:  20,
		Log:       os.Stdout,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%d cycles: residual %.2e -> %.2e (%.1f orders reduced)\n",
		res.Cycles, res.InitialNorm, res.FinalNorm, res.Ordersof10)

	// 4. Inspect the flow: peak Mach number over the bump.
	maxMach := 0.0
	for _, w := range res.FineSolution {
		if m := params.Gas.Mach(w); m > maxMach {
			maxMach = m
		}
	}
	fmt.Printf("freestream Mach %.3f accelerates to %.3f over the bump\n",
		0.5, maxMach)
}
