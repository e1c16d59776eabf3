package main

import (
	"fmt"
	"log"
	"os"

	"eul3d/internal/adapt"
	"eul3d/internal/euler"
	"eul3d/internal/mesh"
	"eul3d/internal/scenario"
	"eul3d/internal/trace"
)

// runAdaptive is the -adapt path: a single-grid solve interleaved with
// indicator-driven refinement epochs (internal/adapt). The engine is
// rebuilt incrementally after every epoch; the run reports the
// incremental-vs-from-scratch build comparison per epoch.
func runAdaptive(p euler.Params, sc *scenario.Scenario, tracer *trace.Tracer, loadSeq func(int) ([]*mesh.Mesh, error)) {
	seq, err := loadSeq(1)
	if err != nil {
		log.Fatalf("eul3d: %v", err)
	}
	m := seq[0]
	fmt.Printf("mesh: %d points, %d tetrahedra, %d edges\n", m.NV(), m.NT(), m.NE())

	var w []euler.State // nil: the freestream
	if sc != nil {
		w = sc.InitialState(m)
	}
	engine := engineConfig()
	if engine.Workers > 0 {
		fmt.Printf("adaptive solve: pooled engine, %d workers\n", *workers)
	} else {
		fmt.Printf("adaptive solve: sequential engine\n")
	}
	fmt.Printf("adaptation: indicator %s, interval %d, max %d epochs, frac %.2f\n",
		*adaptInd, *adaptIntv, *adaptEp, *adaptFrac)

	res, err := adapt.Run(adapt.Options{
		Mesh: m, Init: w, Params: p, Engine: engine,
		Steps: *cycles, Tolerance: *tol,
		Budget: *adaptBud, Interval: *adaptIntv, MaxEpochs: *adaptEp,
		Indicator: *adaptInd, Frac: *adaptFrac,
		LogEvery: *logEvery, Log: os.Stdout,
		Trace: tracer,
	})
	ran(tracer, err)
	report(p.Gas, sc, finished{
		res: &res.Result, mesh: res.Mesh, adaptive: true, maxMach: true,
		statsTitle: "adaptation-phase breakdown", stats: res.Stats,
		detail: func() {
			fmt.Printf("adaptation: %d epochs, %d cells refined (%d -> %d tetrahedra, %d -> %d points)\n",
				len(res.Epochs), res.CellsRefined, m.NT(), res.Mesh.NT(), m.NV(), res.Mesh.NV())
			for i, ep := range res.Epochs {
				line := fmt.Sprintf("  epoch %d @ step %d: marked %d, cells %d -> %d (%d red, %d green), rebuild %.2fms",
					i+1, ep.Step, ep.Marked, ep.CellsBefore, ep.CellsAfter, ep.Red, ep.Green,
					float64(ep.RebuildNS)/1e6)
				if ep.Dt > 0 {
					line += fmt.Sprintf(", dt %.3e", ep.Dt)
				}
				fmt.Println(line)
			}
			if err := res.Mesh.Validate(1e-9); err != nil {
				log.Fatalf("eul3d: adapted mesh failed validation: %v", err)
			}
			fmt.Println("adaptive mesh conformity validated")
		},
	})
}
