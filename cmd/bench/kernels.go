package main

import (
	"time"

	"eul3d/internal/color"
	"eul3d/internal/euler"
	"eul3d/internal/mesh"
	"eul3d/internal/trace"
)

// kernelRepeats is how often the kernel sequence is run; each run is one
// bracketed measurement of all eight kernels.
const kernelRepeats = 5

// Computed bytes moved per element, from the sizes of the arrays each
// kernel names: 8 B per float64 read, 16 B per float64 updated in place,
// 4 B per color-order index, 8 B per edge, 24 B per edge normal, 48 B per
// boundary-face record. Cache misses and the reuse of a vertex by several
// edges are ignored, so these are not measured traffic.
var kernelBytes = map[string]float64{
	"convective":    4 + 8 + 24 + 2*48 + 2*5*16,            // w, pres at both ends; conv updated at both
	"diss_pass1":    4 + 8 + 2*48 + 2*5*16 + 2*16 + 2*16,   // w, pres; lapl, num, den updated
	"diss_pass2":    4 + 8 + 24 + 2*48 + 2*8 + 2*40 + 2*80, // w, pres, nu, lapl; diss updated
	"lambda_edges":  4 + 8 + 24 + 2*48 + 2*16,              // w, pres; lam updated
	"smooth_accum":  4 + 8 + 2*40 + 2*5*16,                 // cur; next updated
	"boundary_flux": 4 + 48 + 3*48 + 3*5*16,                // w, pres at three vertices; conv updated
	"step_init":     40 + 2*40 + 8 + 8,                     // w read; wS, w0S, pres, lam written
	"update_next":   40 + 40 + 8 + 8 + 40 + 8,              // w0S, resS, dt, vol read; wS, pres written
}

// kernels times each public SoA kernel single-threaded over the whole mesh,
// in the order one Runge-Kutta stage calls them and on the colored edge
// order the pooled engine walks, so that every kernel sees the state and
// the access pattern it sees in a step.
func (b *bench) kernels(tk *trace.Track, m *mesh.Mesh, p euler.Params, edges, faces *color.Coloring) {
	d := euler.NewDisc(m, p)
	nv := m.NV()
	w := make([]euler.State, nv)
	d.InitUniform(w)
	wS, w0S := euler.NewStateSoA(nv), euler.NewStateSoA(nv)
	convS, dissS, laplS := euler.NewStateSoA(nv), euler.NewStateSoA(nv), euler.NewStateSoA(nv)
	resS, nextS := euler.NewStateSoA(nv), euler.NewStateSoA(nv)

	elems := map[string]int{
		"convective": m.NE(), "diss_pass1": m.NE(), "diss_pass2": m.NE(), "lambda_edges": m.NE(),
		"smooth_accum": m.NE(), "boundary_flux": len(m.BFaces), "step_init": nv, "update_next": nv,
	}
	times := map[string]*series{}
	for _, k := range kernelNames {
		times[k] = &series{}
	}
	for rep := 0; rep < kernelRepeats; rep++ {
		raw := map[string]float64{}
		timed := func(name string, f func()) {
			t0 := time.Now()
			f()
			raw[name] = time.Since(t0).Seconds()
			b.rec.span(tk, "euler."+name, t0, int64(rep))
		}
		ref := b.host.around(1, func() {
			timed("step_init", func() { d.StepInitSoAKernel(w, wS, w0S, 0, nv) })
			timed("lambda_edges", func() { d.LambdaEdgesSoAKernel(wS, d.Lam(), edges.Order) })
			d.LambdaBFacesSoAKernel(wS, d.Lam(), faces.Order)
			d.DtRangeKernel(d.Lam(), 0, nv)
			d.StageZeroSoAKernel(convS, dissS, laplS, true, 0, nv)
			timed("convective", func() { d.ConvectiveEdgesSoAKernel(wS, convS, edges.Order) })
			timed("boundary_flux", func() { d.BoundaryFluxSoAKernel(wS, convS, faces.Order) })
			timed("diss_pass1", func() { d.DissPass1SoAKernel(wS, laplS, d.Sensor(), d.Den(), edges.Order) })
			d.NuRangeKernel(d.Sensor(), d.Den(), 0, nv)
			timed("diss_pass2", func() { d.DissPass2SoAKernel(wS, laplS, dissS, d.Sensor(), edges.Order) })
			d.CombineResidualSoAKernel(resS, convS, dissS, nil, 0, nv)
			nextS.ZeroRange(0, nv)
			timed("smooth_accum", func() { d.SmoothAccumSoAKernel(resS, nextS, edges.Order) })
			timed("update_next", func() { d.UpdateNextSoAKernel(wS, w0S, resS, p.Stages[0], 0, nv) })
		})
		for name, t := range raw {
			times[name].add(t, ref)
		}
	}
	for _, k := range kernelNames {
		perElem := times[k].quiet() / float64(elems[k])
		b.res["euler."+k+"_ns_per_elem"] = perElem * 1e9
		b.res["euler."+k+"_gbps_computed"] = kernelBytes[k] / perElem / 1e9
	}
}
