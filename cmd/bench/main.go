// Command bench is the repository's benchmark: four workloads, each run in a
// process of its own at a given seed, that print the end-to-end metrics of
// BENCHMARK.json, and a traced pass that probes every layer for the
// per-layer ledger. README.md defines every metric and says why the
// estimators are what they are.
//
// Usage (the driver's form, through run.sh):
//
//	bench -workload single_grid -seed 1 -seconds 24 -trace 0
//	bench -workload serve_mix -seed 1 -seconds 24 -trace 1
//
// and for people:
//
//	bench -check        run the suite twice, fail unless the two agree within the bounds
//	bench -ledger       list the per-layer metrics and what each should move
//	bench -manifest     print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	workers  int // W = min(2, nproc): pool width and GOMAXPROCS
}

// sizes are the problem sizes: the recorded ones, or the -smoke ones that
// only exercise the plumbing.
type sizes struct {
	fine       [3]int // single_grid and wcycle channel cells
	dist       [3]int // distributed channel cells
	nproc      int    // simulated processors
	serveDiv   int    // divisor of the serve_mix mesh dimensions above tiny
	sodSteps   int    // 0: the preset's own step count, which the L1 gate needs
	adaptEvery int    // steps between adaptation epochs (0: the default)
	nodeMix    mix    // one segment of the node replay
	clusterMix mix    // one segment of the coordinator replay
}

var (
	fullSizes  = sizes{fine: [3]int{64, 32, 20}, dist: [3]int{48, 24, 16}, nproc: 8, serveDiv: 1, nodeMix: nodeMix, clusterMix: clusterMix}
	smokeSizes = sizes{fine: [3]int{12, 6, 4}, dist: [3]int{12, 8, 6}, nproc: 4, serveDiv: 2, sodSteps: 40, adaptEvery: 10, nodeMix: smokeNodeMix, clusterMix: smokeClusterMix}
)

// bench is the state of one run.
type bench struct {
	cfg    config
	sz     sizes
	host   *host
	rec    *recorder // nil in the untraced pass
	layers bool      // also produce the per-layer metrics
	res    results
	jobs   *jobSet // the serve_mix requests, built once for both replays
	rss    float64 // peak resident set when a solver window's first round ended

	attempted, failed int
	notes             []string // what failed, for the report on stderr
}

func (b *bench) failf(format string, a ...any) {
	b.failed++
	if len(b.notes) < 20 {
		b.notes = append(b.notes, fmt.Sprintf(format, a...))
	}
}

// output is the last line of standard output, as the contract fixes it.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report goes to stderr before the result line: where the numbers were
// taken and anything a reader needs to trust or doubt them.
type report struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Trace    string      `json:"trace_file,omitempty"`
	Host     fingerprint `json:"host"`
	Sizes    string      `json:"sizes"`
	// The raw floor and median of the one-thread reference samples: equal
	// on a quiet host, 1.3 apart on this one.
	HostRefMS    float64  `json:"host_ref_ms"`
	HostRefP50MS float64  `json:"host_ref_ms_p50"`
	Failures     []string `json:"failures,omitempty"`
}

func main() {
	var cfg config
	var traceFlag int
	var aa, ledger, manifestOut bool
	flag.StringVar(&cfg.workload, "workload", "", "single_grid, wcycle, distributed or serve_mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs (mesh jitter, job order)")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the measuring window")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced pass, per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny problem sizes: exercises the plumbing, measures nothing")
	flag.BoolVar(&aa, "check", false, "run every workload twice in alternating order and fail unless the end-to-end metrics agree within their bounds")
	flag.BoolVar(&ledger, "ledger", false, "list the per-layer metrics and what each should move")
	flag.BoolVar(&manifestOut, "manifest", false, "print BENCHMARK.json")
	flag.Parse()
	cfg.trace = traceFlag != 0

	switch {
	case ledger:
		writeLedger(os.Stdout)
	case manifestOut:
		if err := writeManifest(os.Stdout); err != nil {
			fatal(err)
		}
	case aa:
		if err := runCheck(cfg); err != nil {
			fatal(err)
		}
	default:
		out, rep, err := run(cfg)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(os.Stderr)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
		line, err := json.Marshal(out)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// must and check stop the benchmark on an error from a call that cannot
// fail on the inputs it generates: there is no result worth printing then.
func must[T any](v T, err error) T {
	check(err)
	return v
}

func check(err error) {
	if err != nil {
		fatal(err)
	}
}

// run executes one workload in this process and returns its result line.
func run(cfg config) (*output, *report, error) {
	known := false
	for _, w := range workloads {
		known = known || w.Name == cfg.workload
	}
	if !known {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if !(cfg.seconds > 0) {
		return nil, nil, fmt.Errorf("-seconds must be positive")
	}
	cfg.workers = min(2, runtime.NumCPU())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.workers))

	b := &bench{cfg: cfg, sz: fullSizes, host: newHost(max(cfg.workers, clients)), res: results{}}
	if cfg.smoke {
		b.sz = smokeSizes
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	rep := &report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Host: readFingerprint(),
		Sizes: fmt.Sprintf("fine %v dist %v on %d simulated processors, %d workers", b.sz.fine, b.sz.dist, b.sz.nproc, cfg.workers),
	}

	var defs []metricDef
	if cfg.trace {
		defs = perLayer
		b.traced(window)
		path, err := b.rec.write(cfg.workload)
		if err != nil {
			return nil, nil, err
		}
		rep.Trace = path
	} else {
		defs = endToEnd
		e := b.group(cfg.workload)(window)
		b.res["setup_s"] = e.setup
		b.res["op_ms"] = e.op
		b.res["solve_s"] = e.solve
		b.res["speedup_vs_serial"] = e.speedup
		b.res["peak_rss_mb"] = e.rss
	}
	rep.Failures = b.notes
	rep.HostRefMS, rep.HostRefP50MS = floor(b.host.single)*1e3, median(b.host.single)*1e3
	if cfg.trace {
		b.res["bench.host_ref_ms"], b.res["bench.host_ref_ms_p50"] = rep.HostRefMS, rep.HostRefP50MS
	}
	metrics, err := b.res.emit(defs)
	if err != nil {
		return nil, nil, err
	}
	return &output{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}, rep, nil
}

// group returns the function that runs the named workload for a window.
func (b *bench) group(name string) func(time.Duration) e2e {
	switch name {
	case "single_grid":
		return b.runSingleGrid
	case "wcycle":
		return b.runWcycle
	case "distributed":
		return b.runDistributed
	}
	return b.runServeMix
}

// traced is the second pass: every workload is rerun with the span recorder
// on and the per-layer probes enabled, the named one for a quarter of its
// untraced window and the others for half of that, so that any traced run
// fills the whole ledger. End-to-end metrics never come from here.
func (b *bench) traced(window time.Duration) {
	b.rec = newRecorder()
	b.layers = true
	start := time.Now()
	for _, w := range workloads {
		share := window / 8
		if w.Name == b.cfg.workload {
			share = window / 4
		}
		b.group(w.Name)(share)
	}
	b.runCluster(window / 8)
	b.res["multigrid.fine_step_share"] = b.res["smsolver.step_ms"] / b.res["multigrid.cycle_ms"]

	// What recording cost: the spans written, at the measured price of one,
	// against the time the traced pass took.
	spans := 0
	for _, tk := range b.rec.tr.Tracks() {
		spans += tk.Len()
	}
	probe := newRecorder()
	ptk := probe.track("probe")
	const n = 10000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		probe.do(ptk, "probe", int64(i), func() {})
	}
	perSpan := time.Since(t0).Seconds() / n
	b.res["bench.trace_overhead_frac"] = float64(spans) * perSpan / time.Since(start).Seconds()
	b.res["bench.samples"] = float64(len(b.host.single))
	b.res["bench.window_s"] = time.Since(start).Seconds()
}
