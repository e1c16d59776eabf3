// Command eul3d is the end-to-end flow solver: it generates the transonic
// bump-channel mesh sequence, runs the selected solution strategy (single
// grid, multigrid V-cycle or W-cycle) and reports the convergence history
// and flow-field summary. With -nproc it runs the distributed-memory
// solver on simulated nodes instead, with optional fault injection
// (-faults), periodic checkpointing (-checkpoint) and restart (-resume).
//
// Usage:
//
//	eul3d -nx 32 -ny 16 -nz 12 -levels 4 -strategy w -mach 0.768 -alpha 1.116 -cycles 300
//	eul3d -nproc 8 -faults seed=7,drop=2,corrupt=1,crash=3@40 -checkpoint run.ckpt -checkpoint-every 25
//	eul3d -resume run.ckpt
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"
	"time"

	"eul3d/internal/dmsolver"
	"eul3d/internal/euler"
	"eul3d/internal/graph"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/meshio"
	"eul3d/internal/multigrid"
	"eul3d/internal/partition"
	"eul3d/internal/perf"
	"eul3d/internal/runloop"
	"eul3d/internal/scenario"
	"eul3d/internal/simnet"
	"eul3d/internal/solver"
	"eul3d/internal/tables"
	"eul3d/internal/trace"
)

// The flags. Every path reads them where it needs them: they are set once,
// by flag.Parse, before anything runs.
var (
	nx       = flag.Int("nx", 32, "fine-mesh cells in x")
	ny       = flag.Int("ny", 16, "fine-mesh cells in y")
	nz       = flag.Int("nz", 12, "fine-mesh cells in z")
	levels   = flag.Int("levels", 4, "multigrid levels (ignored for -strategy single)")
	strategy = flag.String("strategy", "w", "solution strategy: single, v or w")
	scenName = flag.String("scenario", "", "run a named verification preset from internal/scenario (\"list\" prints them); replaces the mesh and flow flags")
	mach     = flag.Float64("mach", 0.768, "freestream Mach number")
	alpha    = flag.Float64("alpha", 1.116, "angle of attack in degrees")
	cycles   = flag.Int("cycles", 300, "maximum solver cycles")
	tol      = flag.Float64("tol", 1e-6, "relative residual tolerance (0 = run all cycles)")
	seed     = flag.Int64("seed", 17, "mesh jitter seed")
	logEvery = flag.Int("log-every", 25, "cycles between progress lines (0 = silent)")
	contours = flag.Bool("contours", false, "print ASCII Mach contours of the final solution's mid-span plane (every in-process strategy)")
	workers  = flag.Int("workers", 0, "shared-memory worker-pool solver with this many workers (0 = sequential); works with every strategy")
	stats    = flag.Bool("stats", false, "print the per-phase wall-clock / Mflops breakdown after the run")
	meshPfx  = flag.String("mesh-prefix", "", "load meshes from <prefix>.L<level>.mesh (see cmd/meshgen) instead of generating")
	saveSol  = flag.String("save-solution", "", "write the converged fine-grid solution to this file")
	saveVTK  = flag.String("save-vtk", "", "write mesh + solution as a legacy VTK file (ParaView)")
	initSol  = flag.String("init-solution", "", "warm-start from a saved solution file")
	fmg      = flag.Int("fmg", 0, "full-multigrid initialization: cycles per coarse level (0 = off; -strategy v or w, with or without -workers)")
	history  = flag.String("history", "", "write the residual history as CSV to this file")
	tracePth = flag.String("trace", "", "write a Chrome trace-event JSON timeline of the run to this file (load in Perfetto or chrome://tracing)")

	adaptOn   = flag.Bool("adapt", false, "adaptive solve: refine the mesh during the run driven by an error indicator (single-grid; -workers selects the pooled engine)")
	adaptBud  = flag.Int("adapt-budget", 0, "with -adapt: cell budget (0 = 4x the starting cell count)")
	adaptIntv = flag.Int("adapt-interval", 50, "with -adapt: steps between adaptation epochs")
	adaptEp   = flag.Int("adapt-epochs", 2, "with -adapt: maximum refinement epochs")
	adaptInd  = flag.String("adapt-indicator", "density", "with -adapt: error indicator (density, pressure or residual)")
	adaptFrac = flag.Float64("adapt-frac", 0.1, "with -adapt: fraction of cells marked per epoch")

	nproc     = flag.Int("nproc", 0, "simulated processors for the distributed solver (0 = in-process sequential solver)")
	faultSpec = flag.String("faults", "", "with -nproc: seeded fault-injection spec, e.g. seed=7,drop=2,dup=1,corrupt=1,delay=1,reorder=1,crash=2@40")
	ckptPath  = flag.String("checkpoint", "", "write periodic atomic checkpoints to this file")
	ckptEvery = flag.Int("checkpoint-every", 25, "cycles between checkpoints (with -checkpoint)")
	resume    = flag.String("resume", "", "restart from a checkpoint file written by -checkpoint")
)

func main() {
	flag.Parse()

	p := euler.DefaultParams(*mach, *alpha)
	spec := meshgen.DefaultChannel(*nx, *ny, *nz, *seed)

	var sc *scenario.Scenario
	if *scenName != "" {
		if *scenName == "list" {
			for _, n := range scenario.Names() {
				s, _ := scenario.Get(n)
				fmt.Printf("%-8s %s\n", n, s.Description)
			}
			return
		}
		var err error
		if sc, err = scenario.Get(*scenName); err != nil {
			log.Fatalf("eul3d: %v", err)
		}
		for flagName, on := range map[string]bool{
			"-nproc":         *nproc > 0,
			"-mesh-prefix":   *meshPfx != "",
			"-resume":        *resume != "",
			"-init-solution": *initSol != "",
			"-fmg":           *fmg > 0,
		} {
			if on {
				log.Fatalf("eul3d: -scenario fixes the mesh and initial state and is incompatible with %s", flagName)
			}
		}
		p = sc.Params()
		// The preset's step count and tolerance are defaults, not law:
		// explicit -cycles/-tol still win.
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if !explicit["cycles"] {
			*cycles = sc.Steps
		}
		if !explicit["tol"] {
			*tol = sc.Tol
		}
		if sc.Unsteady && *strategy != "single" {
			if explicit["strategy"] {
				fmt.Printf("scenario %s is time-accurate; forcing -strategy single\n", sc.Name)
			}
			*strategy = "single"
		}
		if *levels > sc.MaxLevels {
			*levels = sc.MaxLevels
		}
		fmt.Printf("scenario %s: %s\n", sc.Name, sc.Description)
	}

	loadSeq := func(levels int) ([]*mesh.Mesh, error) {
		if sc != nil {
			return sc.Meshes(levels)
		}
		if *meshPfx == "" {
			return meshgen.Sequence(spec, levels)
		}
		out := make([]*mesh.Mesh, levels)
		for l := 0; l < levels; l++ {
			m, err := meshio.LoadMesh(fmt.Sprintf("%s.L%d.mesh", *meshPfx, l))
			if err != nil {
				return nil, err
			}
			out[l] = m
		}
		return out, nil
	}

	// Full-multigrid initialization builds the starting solution; a warm
	// start or a resume would overwrite it unseen, and the distributed
	// solver has no FMG.
	for flagName, on := range map[string]bool{
		"-init-solution": *initSol != "",
		"-resume":        *resume != "",
		"-nproc":         *nproc > 0,
	} {
		if on && *fmg > 0 {
			log.Fatalf("eul3d: -fmg builds the initial solution and is incompatible with %s", flagName)
		}
	}

	var ck *meshio.Checkpoint
	if *resume != "" {
		var err error
		ck, err = meshio.LoadCheckpoint(*resume)
		if err != nil {
			log.Fatalf("eul3d: %v", err)
		}
		if ck.Mach != *mach || ck.AlphaDeg != *alpha {
			fmt.Printf("resume: checkpoint was run at mach %g alpha %g; using those\n", ck.Mach, ck.AlphaDeg)
			*mach, *alpha = ck.Mach, ck.AlphaDeg
			p = euler.DefaultParams(*mach, *alpha)
		}
		fmt.Printf("resuming from %s at cycle %d\n", *resume, ck.Cycle)
	}

	// Each path refuses the flags it would otherwise silently ignore.
	if *faultSpec != "" && *nproc <= 0 {
		log.Fatalf("eul3d: -faults requires the distributed solver (-nproc)")
	}
	for flagName, on := range map[string]bool{
		"-workers":       *workers > 0,
		"-init-solution": *initSol != "",
		"-contours":      *contours,
	} {
		if on && *nproc > 0 {
			log.Fatalf("eul3d: -nproc runs the distributed solver and is incompatible with %s", flagName)
		}
	}
	var tracer *trace.Tracer
	if *tracePth != "" {
		tracer = trace.New(1 << 14)
	}
	// The run every path makes: the loop's one description of it.
	run := runloop.Options{
		MaxCycles:       *cycles,
		Tolerance:       *tol,
		LogEvery:        *logEvery,
		Log:             os.Stdout,
		CheckpointEvery: *ckptEvery,
		Meta:            runloop.Meta{Mach: *mach, AlphaDeg: *alpha},
	}
	if *ckptPath != "" {
		run.OnCheckpoint = func(ck *meshio.Checkpoint) error { return meshio.SaveCheckpoint(*ckptPath, ck) }
	}
	if *adaptOn {
		for flagName, on := range map[string]bool{
			"-nproc":         *nproc > 0,
			"-fmg":           *fmg > 0,
			"-resume":        *resume != "",
			"-init-solution": *initSol != "",
			"-contours":      *contours,
			"-checkpoint":    *ckptPath != "",
		} {
			if on {
				log.Fatalf("eul3d: -adapt is incompatible with %s", flagName)
			}
		}
		if *strategy != "single" {
			explicit := map[string]bool{}
			flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
			if explicit["strategy"] {
				log.Fatalf("eul3d: -adapt runs on a single grid; use -strategy single (-workers selects the pooled engine)")
			}
			*strategy = "single"
		}
		runAdaptive(p, sc, tracer, loadSeq, run)
		return
	}
	if *nproc > 0 {
		runDistributed(p, tracer, loadSeq, ck, run)
		return
	}

	cfg := engineConfig()
	if *fmg > 0 && cfg.Gamma == 0 {
		log.Fatalf("eul3d: -fmg requires a multigrid strategy")
	}
	nlev := 1
	if cfg.Gamma > 0 {
		nlev = *levels
	}
	seq, err := loadSeq(nlev)
	if err != nil {
		log.Fatalf("eul3d: %v", err)
	}
	fineMesh := seq[0]
	if cfg.Gamma == 0 {
		fmt.Printf("mesh: %d points, %d tetrahedra, %d edges\n", fineMesh.NV(), fineMesh.NT(), fineMesh.NE())
	} else {
		for l, m := range seq {
			fmt.Printf("level %d: %d points, %d tetrahedra, %d edges\n", l, m.NV(), m.NT(), m.NE())
		}
	}
	st, err := solver.Open(seq, p, cfg)
	if err != nil {
		log.Fatalf("eul3d: %v", err)
	}
	defer st.Close()
	switch {
	case cfg.Workers > 0 && cfg.Gamma == 0:
		fmt.Printf("shared-memory solver: %d workers\n", *workers)
	case cfg.Workers > 0:
		fmt.Printf("pooled multigrid: %d levels, %s-cycle, %d workers\n", *levels, *strategy, *workers)
	case cfg.Gamma > 0:
		fmt.Printf("multigrid: %d levels, %s-cycle, %.2f work units per cycle, %.0f%% memory overhead\n",
			*levels, *strategy, st.MG.WorkUnits(), 100*multigrid.MemoryOverhead(seq))
	}

	if *fmg > 0 {
		st.MG.FMGInit(*fmg)
		fmt.Printf("full-multigrid initialization: %d cycles per coarse level\n", *fmg)
	}
	if *initSol != "" {
		_, _, w0, err := meshio.LoadSolution(*initSol)
		if err != nil {
			log.Fatalf("eul3d: %v", err)
		}
		if err := st.SetInitial(w0); err != nil {
			log.Fatalf("eul3d: %v", err)
		}
		fmt.Printf("warm start from %s\n", *initSol)
	}
	if ck != nil {
		if err := st.Restore(ck); err != nil {
			log.Fatalf("eul3d: %v", err)
		}
	}
	if sc != nil {
		if err := st.SetInitial(sc.InitialState(fineMesh)); err != nil {
			log.Fatalf("eul3d: %v", err)
		}
	}
	if tracer != nil {
		st.SetTrace(tracer)
		fmt.Printf("flight recorder armed; trace goes to %s\n", *tracePth)
	}

	res, err := st.Run(run)
	ran(tracer, err)
	report(p.Gas, sc, finished{
		res: res, mesh: fineMesh, maxMach: true,
		statsTitle: "per-phase breakdown (analytic flop counts)", stats: st.Stats(),
	})

	if *contours {
		f := tables.MachPlane(fineMesh, res.FineSolution, p.Gas, 78, 24)
		fmt.Println("\nMach contours on the mid-span plane:")
		fmt.Print(f.ASCII())
	}
}

// runDistributed is the fault-tolerant distributed path: spectral
// partition per level, PARTI schedules, and the recovery orchestrator
// around the simulated-interconnect solve. With a tracer, a "setup" track
// holds one "partition" span per level (argument: the level) and one
// "engine-build" span for the solver's constructor (argument: the level
// count).
func runDistributed(p euler.Params, tracer *trace.Tracer, loadSeq func(int) ([]*mesh.Mesh, error), ck *meshio.Checkpoint, run runloop.Options) {
	gamma := engineConfig().Gamma
	nlev := *levels
	if gamma == 0 {
		nlev = 1
	}
	seq, err := loadSeq(nlev)
	if err != nil {
		log.Fatalf("eul3d: %v", err)
	}
	setup := tracer.Track("setup")
	parts := make([][]int32, nlev)
	for l, m := range seq {
		from := time.Now()
		g, err := graph.FromEdges(m.NV(), m.Edges)
		if err != nil {
			log.Fatalf("eul3d: %v", err)
		}
		parts[l], err = partition.Partition(g, m.X, *nproc, partition.Spectral, 1)
		if err != nil {
			log.Fatalf("eul3d: %v", err)
		}
		setup.Span(tracer.Phase("partition"), from, time.Now(), int64(l))
		q := partition.Evaluate(parts[l], m.Edges, *nproc)
		fmt.Printf("level %d: %d points over %d processors, %v\n", l, m.NV(), *nproc, q)
	}

	var s *dmsolver.Solver
	from := time.Now()
	if nlev == 1 {
		s, err = dmsolver.NewSingle(seq[0], parts[0], *nproc, p)
	} else {
		s, err = dmsolver.NewMultigrid(seq, parts, *nproc, p, gamma)
	}
	if err != nil {
		log.Fatalf("eul3d: %v", err)
	}
	setup.Span(tracer.Phase("engine-build"), from, time.Now(), int64(nlev))

	var plan *simnet.FaultPlan
	if *faultSpec != "" {
		plan, err = simnet.ParseFaultSpec(*faultSpec)
		if err != nil {
			log.Fatalf("eul3d: %v", err)
		}
		s.Fabric.SetFaultPlan(plan)
		fmt.Printf("fault injection armed: %s\n", *faultSpec)
	}

	workers := s.Workers()
	unit := "workers"
	if workers == 1 {
		unit = "worker"
	}
	fmt.Printf("distributed solve: %d simulated processors on %d %s\n", *nproc, workers, unit)

	if tracer != nil {
		incident := incidentPath(*tracePth)
		s.SetTrace(tracer, incident)
		fmt.Printf("flight recorder armed; trace goes to %s, incident dumps to %s\n", *tracePth, incident)
	}
	if ck != nil {
		if err := s.Restore(ck); err != nil {
			log.Fatalf("eul3d: %v", err)
		}
	}

	res, err := s.Run(run)
	ran(tracer, err)
	report(p.Gas, nil, finished{res: &res.Result, mesh: seq[0], detail: func() {
		msgs, bytes := s.Fabric.TotalStats()
		fmt.Printf("traffic: %d messages, %.2f MB, %d healed by retransmission\n",
			msgs, float64(bytes)/1e6, s.Fabric.Resends())
		if res.Recoveries > 0 || res.CFLBackoffs > 0 {
			fmt.Printf("recovery: %d checkpoint restores after node crashes, %d CFL backoffs\n",
				res.Recoveries, res.CFLBackoffs)
		}
		if plan != nil {
			st := plan.Stats()
			fmt.Printf("faults injected: %d drops, %d duplicates, %d corruptions, %d delays, %d reorders, %d crashes (%d scheduled never fired)\n",
				st.Drops, st.Duplicates, st.Corruptions, st.Delays, st.Reorders, st.Crashes, plan.Unfired())
		}
	}})
}

// engineConfig maps -strategy to the grid shape and -workers to the worker
// count of the in-process engine the main path and the -adapt path open;
// the distributed path takes its cycle index.
func engineConfig() solver.Config {
	c := solver.Config{Workers: *workers}
	switch *strategy {
	case "single":
	case "v":
		c.Gamma = 1
	case "w":
		c.Gamma = 2
	default:
		log.Fatalf("eul3d: unknown strategy %q (want single, v or w)", *strategy)
	}
	return c
}

// finished is a completed run as report prints it: the loop's result, and
// what the paths differ in.
type finished struct {
	res  *runloop.Result
	mesh *mesh.Mesh // the mesh res.FineSolution lives on

	adaptive bool   // the loop counted steps on a changing mesh: no orders-of-ten figure
	detail   func() // the path's own lines under the finished line (traffic and recovery, adaptation epochs); may be nil
	maxMach  bool   // print the maximum local Mach number

	statsTitle string // -stats heading; "" when the path has no breakdown
	stats      perf.Stats
}

// ran follows every path's run: the trace is written, a failed run's too,
// and a failed run ends here.
func ran(tracer *trace.Tracer, err error) {
	writeTrace(tracer, *tracePth)
	if err != nil {
		log.Fatalf("eul3d: %v", err)
	}
}

// report is the tail of every run that returned a result: the divergence
// check, the finished line, the path's detail, the flow-field summary,
// scenario diagnostics, -stats, -history, -save-solution and -save-vtk.
func report(g euler.Gas, sc *scenario.Scenario, f finished) {
	res := f.res
	checkDivergence(*scenName, res.History, res.FineSolution)
	if f.adaptive {
		fmt.Printf("\nfinished after %d steps: residual %.3e -> %.3e", res.Cycles, res.InitialNorm, res.FinalNorm)
	} else {
		fmt.Printf("\nfinished after %d cycles: residual %.3e -> %.3e (%.1f orders)",
			res.Cycles, res.InitialNorm, res.FinalNorm, res.Ordersof10)
	}
	if res.Converged {
		fmt.Printf(" [converged]")
	}
	fmt.Println()
	if f.detail != nil {
		f.detail()
	}

	if f.maxMach {
		maxM := 0.0
		for _, w := range res.FineSolution {
			if m := g.Mach(w); m > maxM {
				maxM = m
			}
		}
		fmt.Printf("max local Mach number: %.3f\n", maxM)
	}

	if sc != nil {
		d := sc.Diagnose(f.mesh, res.FineSolution, res.FinalNorm)
		where := ""
		if f.adaptive {
			where = " (on the adapted mesh)"
		}
		fmt.Printf("\nscenario %s diagnostics%s:\n", sc.Name, where)
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

	if *stats && f.statsTitle != "" {
		fmt.Printf("\n%s:\n%s", f.statsTitle, f.stats)
	}
	writeHistory(*history, res.History)
	if *saveSol != "" {
		if err := meshio.SaveSolution(*saveSol, *mach, *alpha, res.FineSolution); err != nil {
			log.Fatalf("eul3d: %v", err)
		}
		fmt.Printf("solution written to %s\n", *saveSol)
	}
	if *saveVTK != "" {
		if err := meshio.SaveVTK(*saveVTK, f.mesh, g, res.FineSolution, "", nil); err != nil {
			log.Fatalf("eul3d: %v", err)
		}
		fmt.Printf("VTK written to %s\n", *saveVTK)
	}
}

// writeTrace dumps the flight recorder to path as Chrome trace JSON.
func writeTrace(tr *trace.Tracer, path string) {
	if tr == nil || path == "" {
		return
	}
	if err := tr.WriteChromeFile(path); err != nil {
		log.Fatalf("eul3d: writing trace: %v", err)
	}
	fmt.Printf("trace written to %s (%d tracks); load it in Perfetto or chrome://tracing\n",
		path, len(tr.Tracks()))
}

// incidentPath derives the flight-recorder incident dump path from the
// -trace path: out.json -> out.incident.json. Keeping them separate means
// a crash dump survives even after the final trace overwrites nothing.
func incidentPath(tracePath string) string {
	if ext := ".json"; strings.HasSuffix(tracePath, ext) {
		return strings.TrimSuffix(tracePath, ext) + ".incident" + ext
	}
	return tracePath + ".incident"
}

// divergeFields names the conserved variables for divergence reports.
var divergeFields = [euler.NVar]string{"rho", "rho-u", "rho-v", "rho-w", "rho-E"}

// firstNonFinite locates the first NaN/Inf value in the solution, in
// vertex-major order; (-1, -1) when every value is finite.
func firstNonFinite(w []euler.State) (vertex, field int) {
	for i, s := range w {
		for k := 0; k < euler.NVar; k++ {
			if math.IsNaN(s[k]) || math.IsInf(s[k], 0) {
				return i, k
			}
		}
	}
	return -1, -1
}

// checkDivergence aborts with a nonzero exit when the residual history
// contains a NaN or Inf: the run has blown up and the flow-field summary
// that would follow is meaningless. The report names the first offending
// field and vertex in the final solution (and the scenario, when one is
// running) so the blow-up can be localized; the usual culprits are a
// freestream condition outside the scheme's stable range, a time step
// past the stability limit or a badly distorted mesh.
func checkDivergence(scenarioName string, hist []float64, w []euler.State) {
	for c, n := range hist {
		if !math.IsNaN(n) && !math.IsInf(n, 0) {
			continue
		}
		what := "solution"
		if scenarioName != "" {
			what = fmt.Sprintf("scenario %q", scenarioName)
		}
		msg := fmt.Sprintf("eul3d: %s diverged: residual norm %g at cycle %d", what, n, c+1)
		if i, k := firstNonFinite(w); i >= 0 {
			msg += fmt.Sprintf("; first non-finite value is %s at vertex %d", divergeFields[k], i)
		}
		fmt.Fprintf(os.Stderr, "%s; try a lower -mach or -alpha, a smaller time step, or a less distorted mesh (-seed)\n", msg)
		os.Exit(1)
	}
}

func writeHistory(path string, hist []float64) {
	if path == "" {
		return
	}
	var b strings.Builder
	b.WriteString("cycle,residual\n")
	for c, n := range hist {
		fmt.Fprintf(&b, "%d,%.8e\n", c, n)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		log.Fatalf("eul3d: %v", err)
	}
	fmt.Printf("history written to %s\n", path)
}
