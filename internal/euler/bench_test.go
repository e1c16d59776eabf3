package euler

import (
	"testing"

	"eul3d/internal/meshgen"
	"eul3d/internal/reorder"
)

// BenchmarkEdgeSweep times the first-pass edge sweep part by part and
// fused, plus dissipation pass 2, single-threaded over the color-ordered
// view of the 64x32x20 channel (the mesh and the edge order the pooled
// engine walks in cmd/bench's single_grid workload). The single-part rows
// go through the exported one-part kernels, so they also compile against a
// commit that has the kernels but not the sweep: the per-part before/after
// cmd/bench cannot give. ns/edge is the figure EXPERIMENTS.md quotes.
func BenchmarkEdgeSweep(b *testing.B) {
	src, err := meshgen.Channel(meshgen.DefaultChannel(64, 32, 20, 17))
	if err != nil {
		b.Fatal(err)
	}
	m, ec, _, err := reorder.ColorCanonical(src)
	if err != nil {
		b.Fatal(err)
	}
	d := NewDisc(m, DefaultParams(0.768, 0))
	nv := m.NV()
	w := make([]State, nv)
	d.InitUniform(w)
	wS, w0S := NewStateSoA(nv), NewStateSoA(nv)
	convS, laplS, dissS := NewStateSoA(nv), NewStateSoA(nv), NewStateSoA(nv)
	d.StepInitSoAKernel(w, wS, w0S, 0, nv)
	edges := ec.Order
	lam, num, den := d.Lam(), d.Sensor(), d.Den()

	for _, bc := range []struct {
		name string
		run  func()
	}{
		{"lam", func() { d.LambdaEdgesSoAKernel(wS, lam, edges) }},
		{"conv", func() { d.ConvectiveEdgesSoAKernel(wS, convS, edges) }},
		{"diss1", func() { d.DissPass1SoAKernel(wS, laplS, num, den, edges) }},
		{"lam+conv+diss1", func() {
			d.EdgeSweepSoAKernel(PartLam|PartConv|PartDiss1, wS, convS, laplS, lam, num, den, edges)
		}},
		{"conv+diss1", func() {
			d.EdgeSweepSoAKernel(PartConv|PartDiss1, wS, convS, laplS, nil, num, den, edges)
		}},
		{"diss2", func() { d.DissPass2SoAKernel(wS, laplS, dissS, num, edges) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			// The accumulators only ever grow here; zero them per row so no
			// row runs on overflowed sums.
			d.StageZeroSoAKernel(convS, dissS, laplS, true, 0, nv)
			for i := range lam {
				lam[i] = 0
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(edges)), "ns/edge")
		})
	}
}
