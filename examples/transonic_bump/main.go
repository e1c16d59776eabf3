// Transonic bump: the paper's flow condition (Mach 0.768, 1.116 degrees
// angle of attack) over the channel bump, solved to steady state with
// W-cycle multigrid, with shock capturing by the blended Laplacian/
// biharmonic dissipation. Prints the Mach contours of the mid-span plane
// (the Figure 4 analogue) and the wall pressure distribution.
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"sort"

	"eul3d/internal/euler"
	"eul3d/internal/meshgen"
	"eul3d/internal/solver"
	"eul3d/internal/tables"
)

func main() {
	spec := meshgen.DefaultChannel(32, 16, 12, 17)
	meshes, err := meshgen.Sequence(spec, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fine mesh: %d points, %d tetrahedra\n", meshes[0].NV(), meshes[0].NT())

	params := euler.DefaultParams(0.768, 1.116)
	st, err := solver.Open(meshes, params, solver.Config{Kind: solver.KindMG, Gamma: 2})
	if err != nil {
		log.Fatal(err)
	}
	res, err := st.Run(solver.Options{
		MaxCycles: 250,
		Tolerance: 1e-6,
		LogEvery:  25,
		Log:       os.Stdout,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconverged %.1f orders in %d W-cycles\n", res.Ordersof10, res.Cycles)

	// Shock diagnosis: supersonic pocket over the bump.
	g := params.Gas
	super := 0
	maxM := 0.0
	for _, w := range res.FineSolution {
		m := g.Mach(w)
		if m > 1 {
			super++
		}
		maxM = math.Max(maxM, m)
	}
	fmt.Printf("max Mach %.3f; %d supersonic vertices (%.1f%% of the field)\n",
		maxM, super, 100*float64(super)/float64(len(res.FineSolution)))

	// Wall pressure coefficient along the bump (z near mid-span).
	type wallPt struct{ x, cp float64 }
	var wall []wallPt
	m := meshes[0]
	pInf := g.Pressure(params.Freestream)
	qInf := 0.5 * 0.768 * 0.768 // rho=1, |v| = M in this normalization
	for v, x := range m.X {
		if x.Y < 0.12 && math.Abs(x.Z-0.5) < 0.1 {
			cp := (g.Pressure(res.FineSolution[v]) - pInf) / qInf
			wall = append(wall, wallPt{x.X, cp})
		}
	}
	sort.Slice(wall, func(i, j int) bool { return wall[i].x < wall[j].x })
	fmt.Println("\nlower-wall pressure coefficient (x, -Cp):")
	for i := 0; i < len(wall); i += len(wall)/16 + 1 {
		n := int(20 * (0.5 - wall[i].cp))
		if n < 0 {
			n = 0
		}
		fmt.Printf("  x=%.2f %-7.3f %s\n", wall[i].x, -wall[i].cp, repeat('#', n))
	}

	fmt.Println("\nMach contours (mid-span plane, '*' = supersonic):")
	f := tables.MachPlane(m, res.FineSolution, g, 78, 22)
	fmt.Print(f.ASCII())
}

func repeat(c byte, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return string(b)
}
