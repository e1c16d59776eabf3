// Distributed: the Touchstone Delta port in miniature. Partition the mesh
// with recursive spectral bisection, build the PARTI communication
// schedules through the inspector, run the distributed solver on simulated
// nodes, and verify it reproduces the sequential answer bit-for-bit (to
// roundoff). Also demonstrates the incremental-schedule optimization and
// reports the communication statistics behind Tables 2a-2c.
package main

import (
	"fmt"
	"log"
	"math"
	"runtime"

	"eul3d/internal/dmsolver"
	"eul3d/internal/euler"
	"eul3d/internal/graph"
	"eul3d/internal/meshgen"
	"eul3d/internal/parti"
	"eul3d/internal/partition"
	"eul3d/internal/solver"
)

func main() {
	const nodes = 16
	const cycles = 20

	m, err := meshgen.Channel(meshgen.DefaultChannel(16, 8, 6, 17))
	if err != nil {
		log.Fatal(err)
	}
	g, err := graph.FromEdges(m.NV(), m.Edges)
	if err != nil {
		log.Fatal(err)
	}

	// Recursive spectral bisection, as in the paper.
	part, err := partition.Partition(g, m.X, nodes, partition.Spectral, 1)
	if err != nil {
		log.Fatal(err)
	}
	q := partition.Evaluate(part, m.Edges, nodes)
	fmt.Printf("spectral partition over %d nodes: %v\n", nodes, q)

	// Inspector: what does the edge loop need from other processors?
	dist, err := parti.NewDist(part, nodes)
	if err != nil {
		log.Fatal(err)
	}
	gs := parti.NewGhostSpace(dist)
	refs := make([][]int32, nodes)
	for _, e := range m.Edges {
		p := part[e[0]]
		refs[p] = append(refs[p], e[0], e[1])
	}
	schedW := parti.BuildSchedule(gs, refs)
	fmt.Printf("flow-variable schedule: %d ghost values in %d messages per exchange\n",
		schedW.Items(), schedW.Messages())

	// Incremental schedule: the dissipation loops reference the very same
	// vertices, so a second schedule on top of the first fetches nothing —
	// the hash-table dedup of Section 4.3.
	_, reused := parti.BuildIncremental(gs, refs)
	fmt.Printf("incremental schedule for the dissipation loops: %d references reused, 0 new\n", reused)

	// Run distributed vs sequential and compare.
	params := euler.DefaultParams(0.675, 0)
	dm, err := dmsolver.NewSingle(m, part, nodes, params)
	if err != nil {
		log.Fatal(err)
	}
	seq := solver.NewSingleGrid(m, params)

	for c := 0; c < cycles; c++ {
		dmNorm, err := dm.Cycle()
		if err != nil {
			log.Fatal(err)
		}
		seqNorm, _ := seq.Cycle(c) // a sequential step cannot fail
		if c%5 == 0 {
			fmt.Printf("cycle %2d: distributed %.6e  sequential %.6e\n", c, dmNorm, seqNorm)
		}
	}

	// Cycle ran the nodes on min(nodes, GOMAXPROCS) pooled workers, each a
	// contiguous block of nodes; CycleConcurrent runs the same executor with
	// a worker per node, as on the Delta — barrier-synchronized exchanges,
	// bitwise identical whatever the worker count.
	dmc, err := dmsolver.NewSingle(m, part, nodes, params)
	if err != nil {
		log.Fatal(err)
	}
	identical := true
	for c := 0; c < cycles; c++ {
		if _, err := dmc.CycleConcurrent(); err != nil {
			log.Fatal(err)
		}
	}
	wc := dmc.GatherSolution()
	wd := dm.GatherSolution()
	for i := range wc {
		if wc[i] != wd[i] {
			identical = false
			break
		}
	}
	fmt.Printf("\na worker per node (CycleConcurrent) vs %d pooled workers (Cycle): bitwise identical = %v\n",
		min(nodes, runtime.GOMAXPROCS(0)), identical)

	// Max deviation between the two solutions.
	wdm, wseq := dm.GatherSolution(), seq.Solution()
	worst := 0.0
	for i := range wdm {
		for k := 0; k < euler.NVar; k++ {
			worst = math.Max(worst, math.Abs(wdm[i][k]-wseq[i][k]))
		}
	}
	fmt.Printf("\nmax |distributed - sequential| after %d cycles: %.2e\n", cycles, worst)

	msgs, bytes := dm.Fabric.TotalStats()
	fmt.Printf("traffic: %d messages, %.2f MB over %d cycles (%.1f kB/node/cycle)\n",
		msgs, float64(bytes)/1e6, cycles,
		float64(bytes)/1e3/float64(nodes)/float64(cycles))
	fmt.Printf("exchange phases per cycle: %+v\n", dm.Comm)
}
