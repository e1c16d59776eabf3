package tables

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"eul3d/internal/euler"
	"eul3d/internal/graph"
	"eul3d/internal/multigrid"
	"eul3d/internal/parti"
	"eul3d/internal/partition"
	"eul3d/internal/reorder"
	"eul3d/internal/solver"
)

// Claims holds the measured values of the paper's in-text quantitative
// claims (the ones not printed in any table).
type Claims struct {
	// Section 2.3: "a W-multigrid cycle requires approximately 90% more
	// CPU time than a single grid cycle, while the multigrid V-cycle
	// requires 75% more" (sequential).
	VCycleExtraWork float64 // measured fraction, paper ~0.75
	WCycleExtraWork float64 // measured fraction, paper ~0.90
	VCycleWorkUnits float64 // analytic fine-grid steps per V-cycle (multigrid.Ledger)
	WCycleWorkUnits float64 // analytic fine-grid steps per W-cycle

	// Section 2.3: "roughly a 33% increase in memory over the single grid
	// scheme".
	MemoryOverhead float64

	// Section 4.2: "These optimizations alone improved the single node
	// computational rate by a factor of two" — measured as cache-model hit
	// rates before/after node renumbering + edge reordering.
	HitRateScrambled float64
	HitRateReordered float64

	// Section 4.3: incremental schedules "significantly reduce the volume
	// of communication" — ghost values a second schedule would re-fetch
	// per exchange, eliminated by the hash-table dedup.
	IncrementalReused int

	// Sections 2.4/4.1: "the expense of the partitioning operation has
	// been found to be comparable to the cost of a sequential flow
	// solution" — both measured in this process's wall clock.
	PartitionSeconds   float64
	FlowSolveSeconds   float64 // cfg.Cycles single-grid cycles
	PartitionOverSolve float64
}

// ClaimsConfig is the default workload for the derived-claims experiment:
// moderate, since it runs real solver cycles and a real 64-way spectral
// partition.
func ClaimsConfig() Config {
	c := DefaultConfig()
	c.NX, c.NY, c.NZ = 32, 16, 12
	c.Cycles = 100
	return c
}

// MeasureClaims runs the sub-experiments behind the paper's in-text
// claims.
func MeasureClaims(cfg Config, nparts int) (*Claims, error) {
	out := &Claims{}
	p := euler.DefaultParams(cfg.Mach, cfg.AlphaDeg)

	// --- Per-cycle work of the three strategies, measured in wall clock
	// on this machine over real cycles of the sequential engines. The
	// host's speed drifts between timings, so the engines are timed in
	// rounds that rotate their order, and each ratio is the median over
	// rounds of two timings taken in the same round.
	meshesW, err := cfg.Meshes(WCycle)
	if err != nil {
		return nil, err
	}
	var engines [3]*solver.Steady
	for i, strategy := range []Strategy{SingleGrid, VCycle, WCycle} {
		st, err := openEngine(meshesW, strategy, p)
		if err != nil {
			return nil, err
		}
		st.Cycle(0) // warm
		engines[i] = st
	}
	const rounds, reps = 15, 2
	var ratioV, ratioW, single [rounds]float64
	for r := range single {
		var t [3]float64 // seconds per cycle, by engine
		for k := range engines {
			i := (r + k) % len(engines)
			start := time.Now()
			for c := 0; c < reps; c++ {
				engines[i].Cycle(c)
			}
			t[i] = time.Since(start).Seconds() / reps
		}
		ratioV[r], ratioW[r], single[r] = t[1]/t[0], t[2]/t[0], t[0]
	}
	out.VCycleExtraWork = median(ratioV[:]) - 1
	out.WCycleExtraWork = median(ratioW[:]) - 1
	out.VCycleWorkUnits = engines[1].MG.WorkUnits()
	out.WCycleWorkUnits = engines[2].MG.WorkUnits()
	out.MemoryOverhead = multigrid.MemoryOverhead(meshesW)

	// --- Reordering claim: cache-model hit rates on the fine mesh.
	fine := meshesW[0]
	rng := rand.New(rand.NewSource(cfg.Seed))
	shuf := make([]int32, fine.NV())
	for i := range shuf {
		shuf[i] = int32(i)
	}
	rng.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
	scrambled := reorder.RenumberEdges(fine.Edges, shuf)
	edgeShuffle := make([]int32, len(scrambled))
	for i := range edgeShuffle {
		edgeShuffle[i] = int32(i)
	}
	rng.Shuffle(len(edgeShuffle), func(i, j int) {
		edgeShuffle[i], edgeShuffle[j] = edgeShuffle[j], edgeShuffle[i]
	})
	out.HitRateScrambled = reorder.DeltaCache.HitRate(scrambled, edgeShuffle)
	gs, err := graph.FromEdges(fine.NV(), scrambled)
	if err != nil {
		return nil, err
	}
	perm := reorder.CuthillMcKee(gs, true)
	renum := reorder.RenumberEdges(scrambled, reorder.InversePerm(perm))
	out.HitRateReordered = reorder.DeltaCache.HitRate(renum, reorder.SortEdgesByVertex(renum))

	// --- Incremental schedule claim: the dissipation loops reference the
	// same off-processor vertices as the flux loops; the second schedule
	// re-fetches nothing.
	g, err := graph.FromEdges(fine.NV(), fine.Edges)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	part, err := partition.Partition(g, fine.X, nparts, partition.Spectral, cfg.Seed)
	if err != nil {
		return nil, err
	}
	out.PartitionSeconds = time.Since(start).Seconds()
	dist, err := parti.NewDist(part, nparts)
	if err != nil {
		return nil, err
	}
	space := parti.NewGhostSpace(dist)
	refs := make([][]int32, nparts)
	for _, e := range fine.Edges {
		pr := part[e[0]]
		refs[pr] = append(refs[pr], e[0], e[1])
	}
	parti.BuildSchedule(space, refs)
	_, reused := parti.BuildIncremental(space, refs)
	out.IncrementalReused = reused

	// --- Partitioning vs flow solution, both in this process's seconds.
	out.FlowSolveSeconds = median(single[:]) * float64(cfg.Cycles)
	out.PartitionOverSolve = out.PartitionSeconds / out.FlowSolveSeconds
	return out, nil
}

// median returns the median of v, sorting it in place.
func median(v []float64) float64 {
	sort.Float64s(v)
	return v[len(v)/2]
}

// String formats the claims report with the paper's reference values.
func (c *Claims) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Derived claims (measured vs paper):\n")
	fmt.Fprintf(&b, "  V-cycle extra work per cycle:   %+.0f%%   (analytic %+.0f%%; paper: ~+75%%)\n",
		100*c.VCycleExtraWork, 100*(c.VCycleWorkUnits-1))
	fmt.Fprintf(&b, "  W-cycle extra work per cycle:   %+.0f%%   (analytic %+.0f%%; paper: ~+90%%)\n",
		100*c.WCycleExtraWork, 100*(c.WCycleWorkUnits-1))
	fmt.Fprintf(&b, "  multigrid memory overhead:      +%.0f%%   (paper: ~+33%%)\n", 100*c.MemoryOverhead)
	fmt.Fprintf(&b, "  i860 cache hit rate:            %.2f -> %.2f after node+edge reordering (paper: 2x rate)\n",
		c.HitRateScrambled, c.HitRateReordered)
	fmt.Fprintf(&b, "  incremental schedule reuse:     %d ghost refs deduplicated per consecutive loop pair\n",
		c.IncrementalReused)
	fmt.Fprintf(&b, "  spectral partitioning cost:     %.2fs vs %.2fs flow solution = %.2fx (paper: ~1x)\n",
		c.PartitionSeconds, c.FlowSolveSeconds, c.PartitionOverSolve)
	return b.String()
}
