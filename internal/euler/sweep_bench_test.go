package euler_test

import (
	"slices"
	"testing"
	"time"

	"eul3d/internal/euler"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/reorder"
)

// BenchmarkEdgeSweep times the first-pass edge sweep part by part and
// fused, dissipation pass 2 and one gather-form smoothing sweep,
// single-threaded on the 64x32x20 channel (the mesh of cmd/bench's
// single_grid workload) in three edge orders: greedy, the per-edge color
// order a vector pipe walks (reorder.ColorCanonical — no two consecutive
// edges of a color share a vertex); natural, the generator's order, which
// the pooled engine walks (each worker the part of it that touches its
// vertices); and scrambled, the generator's mesh after reorder.Scramble — an
// input with no locality, where every gather misses and the operand's
// layout matters most. The single-part rows go through the exported
// one-part kernels; the smooth row walks vertices, not edges, over rows in
// each order's edge order, and is reported per edge all the same. ns/edge
// is the figure EXPERIMENTS.md quotes; cmd/bench's euler.*_ns_per_elem
// probes walk the greedy order and so cannot show the difference.
func BenchmarkEdgeSweep(b *testing.B) {
	src, err := meshgen.Channel(meshgen.DefaultChannel(64, 32, 20, 17))
	if err != nil {
		b.Fatal(err)
	}
	p := euler.DefaultParams(0.768, 0)
	greedy, err := reorder.ColorCanonical(src)
	if err != nil {
		b.Fatal(err)
	}
	scrambled, err := reorder.Scramble(src, 1)
	if err != nil {
		b.Fatal(err)
	}
	edges := make([]int32, src.NE())
	for i := range edges {
		edges[i] = int32(i)
	}

	type orderState struct {
		name                    string
		d                       *euler.Disc
		wS, convS, laplS, dissS *euler.StateSoA
		adjStart, adj           []int32
	}
	var orders []orderState
	for _, o := range []struct {
		name string
		m    *mesh.Mesh
	}{{"greedy", greedy}, {"natural", src}, {"scrambled", scrambled}} {
		d := euler.NewDisc(o.m, p)
		nv := o.m.NV()
		w := make([]euler.State, nv)
		d.InitUniform(w)
		st := orderState{name: o.name, d: d, wS: euler.NewStateSoA(nv), convS: euler.NewStateSoA(nv), laplS: euler.NewStateSoA(nv), dissS: euler.NewStateSoA(nv)}
		st.adjStart, st.adj = euler.RowsInEdgeOrder(nv, o.m.Edges)
		d.StepInitSoAKernel(w, st.wS, euler.NewStateSoA(nv), 0, nv)
		orders = append(orders, st)
	}

	// One row per kernel; a round times the orders back to back, and the row
	// reports each order's median ns/edge and the median of the per-round
	// natural/greedy ratio. Interleaved because this host's speed wanders by
	// 1.3-1.5x over minutes and a neighbour's burst on a shared vCPU lasts
	// longer than one sweep: whole rows run one after the other cannot be
	// compared, adjacent samples can.
	for _, kernel := range []struct {
		name string
		run  func(o *orderState)
	}{
		{"lam", func(o *orderState) { o.d.LambdaEdgesSoAKernel(o.wS, o.d.Lam(), edges) }},
		{"conv", func(o *orderState) { o.d.ConvectiveEdgesSoAKernel(o.wS, o.convS, edges) }},
		{"diss1", func(o *orderState) { o.d.DissPass1SoAKernel(o.wS, o.laplS, o.d.Sensor(), o.d.Den(), edges) }},
		{"lam+conv+diss1", func(o *orderState) {
			o.d.EdgeSweepSoAKernel(euler.PartLam|euler.PartConv|euler.PartDiss1, o.wS, o.convS, o.laplS, o.d.Lam(), o.d.Sensor(), o.d.Den(), edges, 0, o.wS.Len())
		}},
		{"conv+diss1", func(o *orderState) {
			o.d.EdgeSweepSoAKernel(euler.PartConv|euler.PartDiss1, o.wS, o.convS, o.laplS, nil, o.d.Sensor(), o.d.Den(), edges, 0, o.wS.Len())
		}},
		{"diss2", func(o *orderState) { o.d.DissPass2SoAKernel(o.wS, o.laplS, o.dissS, o.d.Sensor(), edges) }},
		{"smooth", func(o *orderState) {
			euler.SmoothGatherSoAKernel(o.laplS, o.wS, o.dissS, o.adjStart, o.adj, 0.6, 0, o.wS.Len())
		}},
	} {
		b.Run(kernel.name, func(b *testing.B) {
			samples := make([][]float64, len(orders)+1) // per order, then natural/greedy
			for i := range orders {
				// The accumulators only ever grow here; zero them per row so no
				// row runs on overflowed sums.
				o := &orders[i]
				o.d.StageZeroSoAKernel(o.convS, o.dissS, o.laplS, true, 0, o.wS.Len())
				clear(o.d.Lam())
				kernel.run(o)
			}
			b.ResetTimer()
			ns := make([]float64, len(orders))
			for r := 0; r < b.N; r++ {
				for i := range orders {
					t0 := time.Now()
					kernel.run(&orders[i])
					ns[i] = float64(time.Since(t0).Nanoseconds()) / float64(len(edges))
					samples[i] = append(samples[i], ns[i])
				}
				samples[len(orders)] = append(samples[len(orders)], ns[1]/ns[0])
			}
			for i, s := range samples {
				unit := "natural/greedy"
				if i < len(orders) {
					unit = orders[i].name + "-ns/edge"
				}
				slices.Sort(s)
				b.ReportMetric(s[b.N/2], unit)
			}
		})
	}
}
