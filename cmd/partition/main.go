// Command partition partitions a bump-channel mesh across simulated
// processors with the paper's recursive spectral bisection (or the cheaper
// inertial / BFS-greedy baselines) and prints the quality report: edge cut,
// imbalance, boundary fraction, and the PARTI communication schedule the
// partition induces. It also times the partitioner against a modelled C90
// solver cycle. The paper found spectral partitioning as costly as a whole
// sequential flow solve; here it costs 0.09× a 100-cycle solve of the same
// mesh at 64 parts (cmd/benchtables -only claims, results/claims.txt).
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"eul3d/internal/flops"
	"eul3d/internal/graph"
	"eul3d/internal/machine"
	"eul3d/internal/meshgen"
	"eul3d/internal/parti"
	"eul3d/internal/partition"
)

func main() {
	var (
		nx     = flag.Int("nx", 32, "mesh cells in x")
		ny     = flag.Int("ny", 16, "mesh cells in y")
		nz     = flag.Int("nz", 12, "mesh cells in z")
		nparts = flag.Int("parts", 16, "number of partitions")
		method = flag.String("method", "spectral", "partitioner: spectral, inertial, greedy, or all (compare)")
		seed   = flag.Int64("seed", 17, "mesh and partitioner seed")
	)
	flag.Parse()

	m, err := meshgen.Channel(meshgen.DefaultChannel(*nx, *ny, *nz, *seed))
	if err != nil {
		log.Fatalf("partition: %v", err)
	}
	fmt.Printf("mesh: %d points, %d edges\n", m.NV(), m.NE())
	g, err := graph.FromEdges(m.NV(), m.Edges)
	if err != nil {
		log.Fatalf("partition: %v", err)
	}

	methods := map[string][]partition.Method{
		"spectral": {partition.Spectral},
		"inertial": {partition.Inertial},
		"greedy":   {partition.BFSGreedy},
		"all":      {partition.Spectral, partition.Inertial, partition.BFSGreedy},
	}[*method]
	if methods == nil {
		log.Fatalf("partition: unknown method %q", *method)
	}
	if len(methods) > 1 {
		// Comparison mode: quality and cost side by side.
		for _, meth := range methods {
			start := time.Now()
			part, err := partition.Partition(g, m.X, *nparts, meth, *seed)
			if err != nil {
				log.Fatalf("partition: %v", err)
			}
			q := partition.Evaluate(part, m.Edges, *nparts)
			fmt.Printf("%-10s %v  [%v]\n", meth, q, time.Since(start).Round(time.Millisecond))
		}
		return
	}
	meth := methods[0]

	start := time.Now()
	part, err := partition.Partition(g, m.X, *nparts, meth, *seed)
	if err != nil {
		log.Fatalf("partition: %v", err)
	}
	elapsed := time.Since(start)

	q := partition.Evaluate(part, m.Edges, *nparts)
	fmt.Printf("method: %s\n%v\npartitioning time: %v\n", meth, q, elapsed)

	// Communication schedule this partition induces for the flow solver.
	dist, err := parti.NewDist(part, *nparts)
	if err != nil {
		log.Fatalf("partition: %v", err)
	}
	gs := parti.NewGhostSpace(dist)
	refs := make([][]int32, *nparts)
	for _, e := range m.Edges {
		p := part[e[0]]
		refs[p] = append(refs[p], e[0], e[1])
	}
	sched := parti.BuildSchedule(gs, refs)
	fmt.Printf("flow-variable schedule: %d ghost values, %d messages per exchange\n",
		sched.Items(), sched.Messages())

	// The paper: "the expense of the partitioning operation has been found
	// to be comparable to the cost of a sequential flow solution."
	stepFlops := flops.Step(int64(m.NV()), int64(m.NE()), int64(len(m.BFaces)), 5, 2, 2)
	seqStep := float64(stepFlops) / machine.C90.RInf
	fmt.Printf("one sequential C90 solver cycle ~%.3fs; partitioning cost ~%.0f cycles\n",
		seqStep, elapsed.Seconds()/seqStep)
}
