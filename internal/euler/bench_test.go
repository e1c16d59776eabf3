package euler

import (
	"testing"

	"eul3d/internal/meshgen"
)

// BenchmarkReferenceVsSoA times the three edge-loop shapes of a stage both
// ways — the reference functions of ops.go on []State, and the range
// kernels of kernels_soa.go over an identity edge list — single-threaded on
// the 48x24x16 channel in its natural (generation) order: the mesh of
// cmd/bench's distributed workload and the order a partition's local lists
// keep, where BenchmarkEdgeSweep compares the orders a pooled engine can
// walk. Both forms read the same 40-byte records now; what a row pair
// compares is the code — the reference's per-edge pressures-only vertex
// terms and k loops against the kernels' hoisted 1/rho and sound speed and
// unrolled components. A stage row includes what the form pays per stage
// besides the edge loops (pressures or the block refresh with its vertex
// terms, the zeroing, the face loop, the shock switch). ns/edge is the
// figure EXPERIMENTS.md quotes; it is what sized the distributed solver's
// move to the kernels. The smoother has three rows — one Jacobi sweep's
// neighbour sums in edge form (the accumulation alone: its zeroing and
// combine pass are not in the row), ops.go's SmoothAccum against
// SmoothAccumSoAKernel, and the whole sweep in gather form over rows in
// edge order, SmoothGatherSoAKernel, what the pooled and the distributed
// engine run. The "reference" and "soa" suffixes name the two statements,
// no longer two layouts.
func BenchmarkReferenceVsSoA(b *testing.B) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(48, 24, 16, 17))
	if err != nil {
		b.Fatal(err)
	}
	p := DefaultParams(0.768, 0)
	d := NewDisc(m, p)
	nv, ne := m.NV(), m.NE()
	w := make([]State, nv)
	d.InitUniform(w)
	for i := range w { // off the freestream, so no difference is identically zero
		w[i][0] *= 1 + 0.01*float64(i%7)
	}
	pres, lam, num, den := make([]float64, nv), make([]float64, nv), make([]float64, nv), make([]float64, nv)
	conv, lapl, diss := make([]State, nv), make([]State, nv), make([]State, nv)
	wS, convS, laplS, dissS := NewStateSoA(nv), NewStateSoA(nv), NewStateSoA(nv), NewStateSoA(nv)
	copy(*wS, w)
	edges, faces := make([]int32, ne), make([]int32, len(m.BFaces))
	for i := range edges {
		edges[i] = int32(i)
	}
	for i := range faces {
		faces[i] = int32(i)
	}

	adjStart, adj := rowsInEdgeOrder(nv, m.Edges)
	const eps = 0.6

	for _, bc := range []struct {
		name string
		run  func()
	}{
		{"diss-stage/reference", func() {
			Pressures(p.Gas, w, pres)
			SpectralRadii(p.Gas, m.Edges, m.EdgeNorm, m.BFaces, w, pres, lam)
			Convective(&p, m.Edges, m.EdgeNorm, m.BFaces, w, pres, conv)
			DissPass1(m.Edges, w, pres, lapl, num, den)
			ShockSwitch(num, den)
			DissPass2(&p, m.Edges, m.EdgeNorm, w, pres, lapl, num, diss)
		}},
		{"diss-stage/soa", func() {
			d.ResInitSoAKernel(w, wS, 0, nv)
			d.StageZeroSoAKernel(convS, dissS, laplS, true, 0, nv)
			clear(d.Lam())
			d.EdgeSweepSoAKernel(PartLam|PartConv|PartDiss1, wS, convS, laplS, d.Lam(), d.Sensor(), d.Den(), edges, 0, nv)
			d.BFaceSweepSoAKernel(PartLam|PartConv, wS, convS, d.Lam(), faces, 0, nv)
			d.NuRangeKernel(d.Sensor(), d.Den(), 0, nv)
			d.DissPass2SoAKernel(wS, laplS, dissS, d.Sensor(), edges)
		}},
		{"conv-stage/reference", func() {
			Pressures(p.Gas, w, pres)
			Convective(&p, m.Edges, m.EdgeNorm, m.BFaces, w, pres, conv)
		}},
		{"conv-stage/soa", func() {
			d.ResInitSoAKernel(w, wS, 0, nv)
			d.StageZeroSoAKernel(convS, dissS, laplS, false, 0, nv)
			d.EdgeSweepSoAKernel(PartConv, wS, convS, nil, nil, nil, nil, edges, 0, nv)
			d.BFaceSweepSoAKernel(PartConv, wS, convS, nil, faces, 0, nv)
		}},
		{"smooth-accum/reference", func() { SmoothAccum(m.Edges, w, conv) }},
		{"smooth-accum/soa", func() {
			convS.ZeroRange(0, nv)
			d.SmoothAccumSoAKernel(wS, convS, edges)
		}},
		{"smooth-gather/soa", func() { SmoothGatherSoAKernel(laplS, wS, convS, adjStart, adj, eps, 0, nv) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ne), "ns/edge")
		})
	}
}
