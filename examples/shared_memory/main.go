// Shared memory: the Cray Y-MP C90 port in miniature (Section 3). On the
// C90 the edge loops are split into recurrence-free color groups, each
// vectorized and chunked over processors by the autotasking compiler; the
// example prints that coloring, which the calibrated C90 model reads. The
// goroutine workers that run the solver need no coloring: each owns a
// range of vertices and sweeps the edges that touch them, so the result is
// bitwise identical for every worker count, which the example verifies
// before it reports what the C90 model predicts on 1-16 CPUs.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"eul3d/internal/color"
	"eul3d/internal/euler"
	"eul3d/internal/machine"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/solver"
)

func main() {
	m, err := meshgen.Channel(meshgen.DefaultChannel(24, 12, 8, 17))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mesh: %d points, %d edges\n", m.NV(), m.NE())

	// The coloring that makes the C90's edge loops vectorizable/parallel.
	col, err := color.Greedy(m.NV(), m.Edges)
	if err != nil {
		log.Fatal(err)
	}
	sizes := col.GroupSizes()
	minSz, maxSz := sizes[0], sizes[0]
	for _, s := range sizes {
		if s < minSz {
			minSz = s
		}
		if s > maxSz {
			maxSz = s
		}
	}
	fmt.Printf("edge coloring: %d groups, %d..%d edges each (paper: \"say 20 to 30\" groups)\n",
		col.NumColors(), minSz, maxSz)

	// Run the parallel solver with several worker counts; identical
	// residual histories demonstrate the race-free decomposition.
	p := euler.DefaultParams(0.675, 0)
	fmt.Printf("\nGOMAXPROCS = %d\n", runtime.GOMAXPROCS(0))
	var ref []float64
	var lastStats string
	for _, nw := range []int{1, 2, 4} {
		st, err := solver.Open([]*mesh.Mesh{m}, p, solver.Config{Kind: solver.KindSM, Workers: nw})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := st.Run(solver.Options{MaxCycles: 20})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		norms := res.History
		same := "reference"
		if ref != nil {
			same = "bitwise identical"
			for c := range norms {
				if norms[c] != ref[c] {
					same = "DIVERGED"
				}
			}
		} else {
			ref = norms
		}
		fmt.Printf("  %d workers: 20 cycles in %7v, final residual %.6e  [%s]\n",
			nw, elapsed.Round(time.Millisecond), norms[len(norms)-1], same)
		lastStats = st.Stats().String()
		st.Close()
	}

	// Per-phase breakdown of the last run (counted flops / measured time,
	// the paper's Mflops methodology).
	fmt.Printf("\nper-phase breakdown, 4 workers:\n%s", lastStats)

	// What the same loop structure costs on the modeled C90.
	fmt.Println("\ncalibrated Y-MP C90 model for this mesh (100 single-grid cycles):")
	fmt.Printf("%6s %12s %10s %8s\n", "CPUs", "Wall Clock", "CPU sec.", "MFlops")
	regions := c90Regions(m.NV(), sizes, len(m.BFaces))
	tot := machine.Flops(regions)
	for _, cpus := range []int{1, 2, 4, 8, 16} {
		wall, cpu := machine.C90.Time(regions, cpus)
		fmt.Printf("%6d %12.2f %10.2f %8.0f\n", cpus, 100*wall, 100*cpu, float64(tot)/wall/1e6)
	}
}

// c90Regions builds the per-cycle parallel-region list of one time step
// (a condensed version of the internal/tables decomposition).
func c90Regions(nv int, colorSizes []int, nbf int) []machine.Region {
	var r []machine.Region
	addColors := func(flopsPer int64, times int) {
		for t := 0; t < times; t++ {
			for _, s := range colorSizes {
				r = append(r, machine.Region{N: int64(s), FlopsPer: flopsPer})
			}
		}
	}
	addColors(48, 5)                                              // convective, 5 stages
	addColors(24, 2)                                              // dissipation pass 1
	addColors(66, 2)                                              // dissipation pass 2
	addColors(26, 1)                                              // time step
	addColors(10, 10)                                             // smoothing, 2 sweeps x 5 stages
	r = append(r, machine.Region{N: int64(nbf), FlopsPer: 44})    // boundary
	r = append(r, machine.Region{N: int64(nv) * 5, FlopsPer: 28}) // vertex work
	return r
}
