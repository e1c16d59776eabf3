package eul3d

import (
	"fmt"
	"testing"

	"eul3d/internal/dmsolver"
	"eul3d/internal/euler"
	"eul3d/internal/graph"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/multigrid"
	"eul3d/internal/parti"
	"eul3d/internal/partition"
	"eul3d/internal/reorder"
	"eul3d/internal/smsolver"
)

// Ablation benchmarks for the design choices DESIGN.md calls out: node
// renumbering (Section 4.2), partitioner choice (Section 4.1), and
// incremental communication schedules (Section 4.3). Each benchmark
// measures the real effect in this Go implementation, complementing the
// machine-model numbers in the tables.

// BenchmarkAblationOrdering measures, in wall-clock on the benchmark's
// 64x32x20 channel, what Section 4.2's reorderings are worth here: one
// sequential Disc.Step on the generator's natural ordering, on that mesh's
// color-canonical form (edges stored in per-edge color order) and on the
// RCM-renumbered mesh's color-canonical form; and one pooled step at 1 and 2
// workers on the natural and the RCM-renumbered mesh and — the paper's
// actual starting point, an order with no locality — on the scrambled mesh
// and on the scrambled mesh RCM-renumbered (the engine lays each out in
// groups of runs itself; the groups metric is how many it needed, and so
// whether its layout found local runs or fell back to single edges). The
// findings are in EXPERIMENTS.md.
func BenchmarkAblationOrdering(b *testing.B) {
	natural, err := meshgen.Channel(meshgen.DefaultChannel(64, 32, 20, 1))
	if err != nil {
		b.Fatal(err)
	}
	rcm, err := reorder.RCMMesh(natural)
	if err != nil {
		b.Fatal(err)
	}
	scrambled, err := reorder.Scramble(natural, 1)
	if err != nil {
		b.Fatal(err)
	}
	scrambledRCM, err := reorder.RCMMesh(scrambled)
	if err != nil {
		b.Fatal(err)
	}
	canonical := func(m *mesh.Mesh) *mesh.Mesh {
		c, _, _, err := reorder.ColorCanonical(m)
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	p := euler.DefaultParams(0.675, 0)

	for _, tc := range []struct {
		name string
		m    *mesh.Mesh
	}{
		{"natural", natural},
		{"canonical", canonical(natural)},
		{"rcm-canonical", canonical(rcm)},
	} {
		b.Run("sequential/"+tc.name, func(b *testing.B) {
			d := euler.NewDisc(tc.m, p)
			ws := euler.NewStepWorkspace(tc.m.NV())
			w := make([]euler.State, tc.m.NV())
			d.InitUniform(w)
			d.Step(w, nil, ws)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Step(w, nil, ws)
			}
		})
	}
	for _, tc := range []struct {
		name string
		m    *mesh.Mesh
	}{
		{"natural", natural},
		{"rcm", rcm},
		{"scrambled", scrambled},
		{"scrambled-rcm", scrambledRCM},
	} {
		for _, nw := range []int{1, 2} {
			b.Run(fmt.Sprintf("pooled-w%d/%s", nw, tc.name), func(b *testing.B) {
				s, err := smsolver.New(tc.m, p, nw)
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				w := make([]euler.State, tc.m.NV())
				s.InitUniform(w)
				s.Step(w, nil)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Step(w, nil)
				}
				groups, _ := s.NumColors()
				b.ReportMetric(float64(groups), "groups")
			})
		}
	}
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

// BenchmarkAblationCoarsePartition explains the benchmark's ghost count:
// the distributed workload's shape (48x24x16 channel, 2 levels, 8
// processors) built with the coarse level partitioned spectrally on its own,
// as the workload does, and with the coarse level inheriting the fine
// partition through the transfer operator (parts[1] == nil). Reported per
// variant: fine-level ghost slots over fine vertices (the ledger's
// parti.ghost_frac), the items of the edge-loop, halo and two transfer
// schedules, the share of coarse vertices whose processor also owns their
// dominant fine interpolation address — as partitioned, and under the
// relabelling of the coarse parts that maximises it — and messages per
// W-cycle.
func BenchmarkAblationCoarsePartition(b *testing.B) {
	const nproc = 8
	meshes, err := meshgen.Sequence(meshgen.DefaultChannel(48, 24, 16, 42), 2)
	if err != nil {
		b.Fatal(err)
	}
	spectral := make([][]int32, 2)
	for l, m := range meshes {
		g, err := graph.FromEdges(m.NV(), m.Edges)
		if err != nil {
			b.Fatal(err)
		}
		if spectral[l], err = partition.Partition(g, m.X, nproc, partition.Spectral, 1); err != nil {
			b.Fatal(err)
		}
	}
	restrict, err := multigrid.BuildTransfer(meshes[1], meshes[0])
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name  string
		parts [][]int32
	}{{"independent", spectral}, {"inherit", [][]int32{spectral[0], nil}}} {
		b.Run(v.name, func(b *testing.B) {
			var dm *dmsolver.Solver
			for i := 0; i < b.N; i++ {
				if dm, err = dmsolver.NewMultigrid(meshes, v.parts, nproc, euler.DefaultParams(0.675, 0), 2); err != nil {
					b.Fatal(err)
				}
			}
			fine, coarse := dm.Levels[0], dm.Levels[1]
			ghosts := 0
			for p := 0; p < nproc; p++ {
				ghosts += fine.GS.NumGhosts(p)
			}
			var overlap [nproc][nproc]int // [coarse part][part of the dominant fine address]
			for c, q := range coarse.Part {
				best := 0
				for k := 1; k < 4; k++ {
					if restrict.Wt[c][k] > restrict.Wt[c][best] {
						best = k
					}
				}
				overlap[q][fine.Part[restrict.Addr[c][best]]]++
			}
			aligned := 0
			for q := range overlap {
				aligned += overlap[q][q]
			}
			// Best assignment of coarse parts to processors, by exhaustion
			// (8! orders).
			relabelled := 0
			var assign func(q, used, sum int)
			assign = func(q, used, sum int) {
				if q == nproc {
					relabelled = max(relabelled, sum)
					return
				}
				for p := 0; p < nproc; p++ {
					if used&(1<<p) == 0 {
						assign(q+1, used|1<<p, sum+overlap[q][p])
					}
				}
			}
			assign(0, 0, 0)
			if _, err := dm.Cycle(); err != nil {
				b.Fatal(err)
			}
			msgs, _ := dm.Fabric.TotalStats()
			b.ReportMetric(float64(ghosts)/float64(meshes[0].NV()), "ghost-frac")
			b.ReportMetric(float64(fine.SchedW.Items()), "edge-ghosts")
			b.ReportMetric(float64(fine.SchedHalo.Items()), "halo-ghosts")
			b.ReportMetric(float64(coarse.SchedFine.Items()), "restrict-ghosts")
			b.ReportMetric(float64(coarse.SchedCoarse.Items()), "prolong-ghosts")
			b.ReportMetric(float64(aligned)/float64(len(coarse.Part)), "coarse-aligned")
			b.ReportMetric(float64(relabelled)/float64(len(coarse.Part)), "coarse-aligned-relabelled")
			b.ReportMetric(float64(msgs), "msgs/cycle")
		})
	}
}
