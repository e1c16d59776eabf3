package main

import (
	"fmt"
	"log"
	"os"

	"eul3d/internal/adapt"
	"eul3d/internal/euler"
	"eul3d/internal/mesh"
	"eul3d/internal/meshio"
	"eul3d/internal/scenario"
	"eul3d/internal/trace"
)

type adaptOpts struct {
	budget    int
	interval  int
	epochs    int
	indicator string
	frac      float64
	workers   int
	cycles    int
	tol       float64
	logEvery  int
	scenName  string
	stats     bool
	history   string
	saveSol   string
	saveVTK   string
	mach      float64
	alpha     float64
	tracer    *trace.Tracer
	tracePath string
}

// runAdaptive is the -adapt path: a single-grid solve interleaved with
// indicator-driven refinement epochs (internal/adapt). The engine is
// rebuilt incrementally after every epoch; the run reports the
// incremental-vs-from-scratch build comparison per epoch.
func runAdaptive(p euler.Params, sc *scenario.Scenario, loadSeq func(int) ([]*mesh.Mesh, error), o adaptOpts) {
	seq, err := loadSeq(1)
	if err != nil {
		log.Fatalf("eul3d: %v", err)
	}
	m := seq[0]
	fmt.Printf("mesh: %d points, %d tetrahedra, %d edges\n", m.NV(), m.NT(), m.NE())

	var w []euler.State
	if sc != nil {
		w = sc.InitialState(m)
	} else {
		w = make([]euler.State, m.NV())
		for i := range w {
			w[i] = p.Freestream
		}
	}
	engine := "single"
	if o.workers > 0 {
		engine = "sm"
		fmt.Printf("adaptive solve: pooled engine, %d workers\n", o.workers)
	} else {
		fmt.Printf("adaptive solve: sequential engine\n")
	}
	fmt.Printf("adaptation: indicator %s, interval %d, max %d epochs, frac %.2f\n",
		o.indicator, o.interval, o.epochs, o.frac)

	res, err := adapt.Run(adapt.Options{
		Mesh: m, Init: w, Params: p,
		Engine: engine, Workers: o.workers,
		Steps: o.cycles, Tolerance: o.tol,
		Budget: o.budget, Interval: o.interval, MaxEpochs: o.epochs,
		Indicator: o.indicator, Frac: o.frac,
		LogEvery: o.logEvery, Log: os.Stdout,
		Trace: o.tracer,
	})
	if err != nil {
		writeTrace(o.tracer, o.tracePath)
		log.Fatalf("eul3d: %v", err)
	}
	writeTrace(o.tracer, o.tracePath)
	checkDivergence(o.scenName, res.History, res.Solution)

	fmt.Printf("\nfinished after %d steps: residual %.3e -> %.3e",
		res.Steps, res.InitialNorm, res.FinalNorm)
	if res.Converged {
		fmt.Printf(" [converged]")
	}
	fmt.Println()
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

	g := p.Gas
	maxM := 0.0
	for _, wi := range res.Solution {
		if mm := g.Mach(wi); mm > maxM {
			maxM = mm
		}
	}
	fmt.Printf("max local Mach number: %.3f\n", maxM)

	if sc != nil {
		d := sc.Diagnose(res.Mesh, res.Solution, res.FinalNorm)
		fmt.Printf("\nscenario %s diagnostics (on the adapted mesh):\n", sc.Name)
		if d.L1Density >= 0 {
			fmt.Printf("  L1 density error vs exact solution: %.6g (tolerance %.3g)\n", d.L1Density, sc.L1Tol)
		}
		fmt.Printf("  min density %.6g, min pressure %.6g\n", d.Min[0], d.MinPressure)
		if d.ProbeLabel != "" {
			fmt.Printf("  %s: %.6g (analytic %.6g)\n", d.ProbeLabel, d.ProbeGot, d.ProbeWant)
		}
		if err := sc.Check(d); err != nil {
			log.Fatalf("eul3d: scenario check failed: %v", err)
		}
		fmt.Println("scenario check passed")
	}

	if o.stats {
		fmt.Printf("\nadaptation-phase breakdown:\n%s", res.Stats)
	}
	writeHistory(o.history, res.History)
	if o.saveSol != "" {
		if err := meshio.SaveSolution(o.saveSol, o.mach, o.alpha, res.Solution); err != nil {
			log.Fatalf("eul3d: %v", err)
		}
		fmt.Printf("solution written to %s\n", o.saveSol)
	}
	if o.saveVTK != "" {
		if err := meshio.SaveVTK(o.saveVTK, res.Mesh, p.Gas, res.Solution, "", nil); err != nil {
			log.Fatalf("eul3d: %v", err)
		}
		fmt.Printf("VTK written to %s\n", o.saveVTK)
	}
}
