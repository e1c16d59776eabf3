package eul3d

import (
	"math/rand"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/graph"
	"eul3d/internal/meshgen"
	"eul3d/internal/parti"
	"eul3d/internal/partition"
	"eul3d/internal/reorder"
)

// Ablation benchmarks for the design choices DESIGN.md calls out: node
// renumbering (Section 4.2), partitioner choice (Section 4.1), and
// incremental communication schedules (Section 4.3). Each benchmark
// measures the real effect in this Go implementation, complementing the
// machine-model numbers in the tables.

// benchResidual measures the full residual evaluation on the given mesh.
func benchResidual(b *testing.B, build func(b *testing.B) *euler.Disc) {
	d := build(b)
	w := make([]euler.State, d.M.NV())
	d.InitUniform(w)
	// Perturb so the pressure switch does real work.
	rng := rand.New(rand.NewSource(1))
	for i := range w {
		w[i][0] *= 1 + 0.01*rng.Float64()
	}
	res := make([]euler.State, d.M.NV())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Residual(w, nil, res)
	}
}

// BenchmarkAblationOrderingNatural: residual on the generator's natural
// (structured) vertex ordering.
func BenchmarkAblationOrderingNatural(b *testing.B) {
	benchResidual(b, func(b *testing.B) *euler.Disc {
		m, err := meshgen.Channel(meshgen.DefaultChannel(32, 16, 12, 17))
		if err != nil {
			b.Fatal(err)
		}
		return euler.NewDisc(m, euler.DefaultParams(0.675, 0))
	})
}

// BenchmarkAblationOrderingScrambled: residual after randomly permuting
// the vertex numbering — the cache-hostile baseline of Section 4.2.
func BenchmarkAblationOrderingScrambled(b *testing.B) {
	benchResidual(b, func(b *testing.B) *euler.Disc {
		m, err := meshgen.Channel(meshgen.DefaultChannel(32, 16, 12, 17))
		if err != nil {
			b.Fatal(err)
		}
		perm := make([]int32, m.NV())
		for i := range perm {
			perm[i] = int32(i)
		}
		rand.New(rand.NewSource(3)).Shuffle(len(perm), func(i, j int) {
			perm[i], perm[j] = perm[j], perm[i]
		})
		sm, err := reorder.ApplyToMesh(m, perm)
		if err != nil {
			b.Fatal(err)
		}
		return euler.NewDisc(sm, euler.DefaultParams(0.675, 0))
	})
}

// BenchmarkAblationOrderingRCM: residual after reverse Cuthill-McKee
// renumbering of the scrambled mesh — the paper's node reordering fix.
func BenchmarkAblationOrderingRCM(b *testing.B) {
	benchResidual(b, func(b *testing.B) *euler.Disc {
		m, err := meshgen.Channel(meshgen.DefaultChannel(32, 16, 12, 17))
		if err != nil {
			b.Fatal(err)
		}
		perm := make([]int32, m.NV())
		for i := range perm {
			perm[i] = int32(i)
		}
		rand.New(rand.NewSource(3)).Shuffle(len(perm), func(i, j int) {
			perm[i], perm[j] = perm[j], perm[i]
		})
		sm, err := reorder.ApplyToMesh(m, perm)
		if err != nil {
			b.Fatal(err)
		}
		rm, err := reorder.RCMMesh(sm)
		if err != nil {
			b.Fatal(err)
		}
		return euler.NewDisc(rm, euler.DefaultParams(0.675, 0))
	})
}

// BenchmarkAblationPartitioners compares the communication volume (ghost
// values per exchange) induced by the three partitioning strategies at 32
// parts — the quantity the paper's partitioner choice minimizes.
func BenchmarkAblationPartitioners(b *testing.B) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(24, 12, 8, 17))
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.FromEdges(m.NV(), m.Edges)
	if err != nil {
		b.Fatal(err)
	}
	for _, method := range []partition.Method{partition.Spectral, partition.Inertial, partition.BFSGreedy} {
		b.Run(method.String(), func(b *testing.B) {
			var items, cut int
			for i := 0; i < b.N; i++ {
				part, err := partition.Partition(g, m.X, 32, method, 1)
				if err != nil {
					b.Fatal(err)
				}
				d, err := parti.NewDist(part, 32)
				if err != nil {
					b.Fatal(err)
				}
				gs := parti.NewGhostSpace(d)
				refs := make([][]int32, 32)
				for _, e := range m.Edges {
					p := part[e[0]]
					refs[p] = append(refs[p], e[0], e[1])
				}
				sch := parti.BuildSchedule(gs, refs)
				items = sch.Items()
				cut = partition.Evaluate(part, m.Edges, 32).EdgeCut
			}
			b.ReportMetric(float64(items), "ghosts/exchange")
			b.ReportMetric(float64(cut), "edgecut")
		})
	}
}

// BenchmarkAblationIncrementalSchedules compares the per-cycle gather
// volume with and without the incremental-schedule optimization: without
// it, every consecutive loop pair re-fetches its full reference set.
func BenchmarkAblationIncrementalSchedules(b *testing.B) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(24, 12, 8, 17))
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.FromEdges(m.NV(), m.Edges)
	if err != nil {
		b.Fatal(err)
	}
	part, err := partition.Partition(g, m.X, 32, partition.Spectral, 1)
	if err != nil {
		b.Fatal(err)
	}
	refs := make([][]int32, 32)
	for _, e := range m.Edges {
		p := part[e[0]]
		refs[p] = append(refs[p], e[0], e[1])
	}
	var withOpt, without int
	for i := 0; i < b.N; i++ {
		d, err := parti.NewDist(part, 32)
		if err != nil {
			b.Fatal(err)
		}
		// With: one schedule, the second loop reuses all ghosts.
		gs := parti.NewGhostSpace(d)
		first := parti.BuildSchedule(gs, refs)
		second, _ := parti.BuildIncremental(gs, refs)
		withOpt = first.Items() + second.Items()
		// Without: each loop builds its own ghost region from scratch.
		gs1 := parti.NewGhostSpace(d)
		s1 := parti.BuildSchedule(gs1, refs)
		gs2 := parti.NewGhostSpace(d)
		s2 := parti.BuildSchedule(gs2, refs)
		without = s1.Items() + s2.Items()
	}
	b.ReportMetric(float64(withOpt), "ghosts-incremental")
	b.ReportMetric(float64(without), "ghosts-naive")
}
