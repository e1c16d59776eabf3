package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// The four workloads, with the reason each exists (BENCHMARK.json "why").
var workloads = []struct{ Name, Why string }{
	{"single_grid", "pooled single-grid engine on the 45k-vertex channel: the colored edge kernels do all the work, so kernel and edge-ordering changes show here"},
	{"wcycle", "pooled 4-level W-cycle on the same mesh: coarse levels run inline and transfers and barriers matter, so a fine-grid gain that costs them shows as a loss"},
	{"distributed", "PARTI-distributed 2-level W-cycle on 8 simulated processors: gather/scatter, incremental schedules and simnet do work no other workload touches"},
	{"serve_mix", "seeded 8-class job mix from 2 closed-loop clients against an in-process eul3dd: queue, cache, coalescing, store and encode set the latency, not the kernels"},
}

// metricDef declares one metric. Moves says, for a per-layer metric, which
// end-to-end metric on which workload a change to it should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// endToEnd metrics are emitted by every workload with -trace 0; what the
// workload's "operation" and "job" are is fixed in README.md.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "solve_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "speedup_vs_serial", Unit: "x", Better: "higher", Bound: 0.20},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

const (
	sgSetup = "setup_s on single_grid and wcycle"
	sgOp    = "op_ms on single_grid (most), wcycle (fine level only); not serve_mix"
	sgSpeed = "speedup_vs_serial on single_grid"
	mgOp    = "op_ms and speedup_vs_serial on wcycle"
	dmSetup = "setup_s on distributed only"
	dmOp    = "op_ms on distributed only"
	svOp    = "op_ms and solve_s on serve_mix"
	svTail  = "serve.latency_ms_p95, then solve_s on serve_mix"
	clOp    = "cluster.latency_ms_p50 (no end-to-end metric: see README)"
	info    = "informational"
)

// kernelNames are the SoA kernels timed one by one over the single_grid mesh.
var kernelNames = []string{"convective", "diss_pass1", "diss_pass2", "lambda_edges", "smooth_accum", "boundary_flux", "step_init", "update_next"}

// serveClasses are the job classes of the serve_mix list.
var serveClasses = []string{"tiny", "hit", "cold", "pooled", "dup", "byhash", "sod", "adapt"}

// perLayer metrics are emitted by every workload with -trace 1: the traced
// pass probes every layer, whichever workload it was asked for.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	ms := func(name, moves string) metricDef {
		return metricDef{Name: name, Unit: "ms", Better: "lower", Moves: moves}
	}
	count := func(name, moves string) metricDef {
		return metricDef{Name: name, Unit: "count", Better: "lower", Moves: moves}
	}
	frac := func(name, better, moves string) metricDef {
		return metricDef{Name: name, Unit: "frac", Better: better, Moves: moves}
	}
	out := []metricDef{
		ms("meshgen.sequence_ms", sgSetup+"; serve.class_cold_ms"),
		ms("color.greedy_edges_ms", sgSetup+"; serve.class_cold_ms"),
		ms("color.greedy_faces_ms", sgSetup+"; serve.class_cold_ms"),
		ms("smsolver.new_ms", sgSetup),
		ms("multigrid.transfer_build_ms", sgSetup),
		ms("partition.spectral_ms", dmSetup),
		ms("dmsolver.new_ms", dmSetup),
		ms("parti.schedule_build_ms", dmSetup),
		{Name: "parti.incremental_reused", Unit: "count", Better: "higher", Moves: dmSetup},
	}
	for _, k := range kernelNames {
		out = append(out,
			metricDef{Name: "euler." + k + "_ns_per_elem", Unit: "ns", Better: "lower", Moves: sgOp},
			metricDef{Name: "euler." + k + "_gbps_computed", Unit: "GB/s", Better: "higher", Moves: sgOp})
	}
	out = append(out,
		ms("solver.serial_step_ms", "solve_s and speedup_vs_serial on single_grid"),
		count("solver.cycles_to_tol_single", "solve_s on single_grid"),
		metricDef{Name: "solver.solve_wall_s_single", Unit: "s", Better: "lower", Moves: info},
		ms("multigrid.serial_cycle_ms", "solve_s and speedup_vs_serial on wcycle"),
		count("solver.cycles_to_tol_wcycle", "solve_s on wcycle"),
		metricDef{Name: "solver.solve_wall_s_wcycle", Unit: "s", Better: "lower", Moves: info},
		ms("dmsolver.serial_ref_cycle_ms", "solve_s and speedup_vs_serial on distributed"),
		count("solver.cycles_to_tol_distributed", "solve_s on distributed"),
		metricDef{Name: "solver.solve_wall_s_distributed", Unit: "s", Better: "lower", Moves: info},

		ms("smsolver.step_ms", sgSpeed),
		ms("smsolver.step_ms_w1", sgSpeed),
		metricDef{Name: "smsolver.color_order_overhead", Unit: "x", Better: "lower", Moves: sgSpeed},
		frac("smsolver.parallel_eff", "higher", sgSpeed),
		metricDef{Name: "smsolver.mflops", Unit: "Mflop/s", Better: "higher", Moves: sgSpeed},
		count("smsolver.allocs_per_step", sgSpeed),

		ms("multigrid.cycle_ms", mgOp),
		metricDef{Name: "multigrid.work_units", Unit: "x", Better: "lower", Moves: mgOp},
		frac("multigrid.fine_step_share", "higher", mgOp),
		ms("multigrid.interp_ms", mgOp),
		ms("multigrid.scatter_ms", mgOp),
		count("multigrid.allocs_per_cycle", mgOp),

		ms("dmsolver.cycle_ms", dmOp),
		count("simnet.msgs_per_cycle", dmOp),
		metricDef{Name: "simnet.bytes_per_cycle", Unit: "B", Better: "lower", Moves: dmOp},
		count("simnet.resends", dmOp),
		count("parti.gathers_per_cycle", dmOp),
		count("parti.scatters_per_cycle", dmOp),
		frac("parti.ghost_frac", "lower", dmOp),
		frac("partition.edge_cut_frac", "lower", dmOp),
		frac("partition.imbalance", "lower", dmOp),
		ms("parti.gather_ms", dmOp),
		ms("parti.scatter_ms", dmOp),
		frac("dmsolver.mg3_norm_rel_diff", "lower", "nothing yet: a known mismatch, see README"),
		frac("dmsolver.mg4_norm_rel_diff", "lower", "nothing yet: a known mismatch, see README"),
	)
	for _, c := range serveClasses {
		moves := svOp
		if c == "sod" || c == "pooled" || c == "adapt" || c == "cold" {
			moves = svTail
		}
		out = append(out, ms("serve.class_"+c+"_ms", moves))
	}
	out = append(out,
		ms("serve.latency_ms_p50", svOp),
		ms("serve.latency_ms_p95", "solve_s on serve_mix"),
		ms("serve.latency_ms_p50_raw", info),
		metricDef{Name: "serve.jobs_per_s", Unit: "1/s", Better: "higher", Moves: "solve_s on serve_mix"},
		ms("serve.overhead_ms", "op_ms and speedup_vs_serial on serve_mix"),
		frac("serve.cache_hit_rate", "higher", svOp),
		metricDef{Name: "serve.coalesce_attached", Unit: "count", Better: "higher", Moves: svOp},
		metricDef{Name: "serve.response_bytes_p50", Unit: "B", Better: "lower", Moves: svOp},
		metricDef{Name: "store.put_mb_s", Unit: "MB/s", Better: "higher", Moves: svOp},
		metricDef{Name: "store.get_mb_s", Unit: "MB/s", Better: "higher", Moves: svOp},
		ms("meshio.encode_mesh_ms", "setup_s on serve_mix"),
		ms("adapt.rebuild_ms_per_epoch", svTail),
		count("adapt.cells_refined", svTail),
		frac("scenario.sod_l1", "lower", "nothing: a correctness record, gated at 0.025"),

		ms("cluster.latency_ms_p50", clOp),
		metricDef{Name: "cluster.jobs_per_s", Unit: "1/s", Better: "higher", Moves: clOp},
		ms("cluster.overhead_ms", clOp),
		count("cluster.dispatches", clOp),
		count("cluster.retries", clOp),
		metricDef{Name: "cluster.coalesce_attached", Unit: "count", Better: "higher", Moves: clOp},
		count("cluster.artifact_pushes", clOp),

		ms("bench.host_ref_ms", "nothing: tells a disturbed host from a changed program"),
		ms("bench.host_ref_ms_p50", "nothing: its distance from bench.host_ref_ms is how disturbed the host was"),
		frac("bench.trace_overhead_frac", "lower", info),
		metricDef{Name: "bench.samples", Unit: "count", Better: "higher", Moves: info},
		metricDef{Name: "bench.window_s", Unit: "s", Better: "lower", Moves: info},
	)
	return out
}

// results collects metric values by name as the probes produce them.
type results map[string]float64

// emit builds the contract's "metrics" object for defs. A declared metric
// that no probe produced, or a value that is not a finite number, is a bug
// in the benchmark and is reported as an error rather than printed.
func (r results) emit(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// manifest is the BENCHMARK.json document.
type manifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []manifestLoad  `json:"workloads"`
	EndToEnd   []manifestBound `json:"end_to_end"`
	PerLayer   []manifestLayer `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestBound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is the measuring window the driver passes as -seconds.
const runSeconds = 24

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"sh", "cmd/bench/run.sh"},
		Paths:      []string{"cmd/bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestBound{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{d.Name, d.Unit, d.Better})
	}
	return m
}

func writeManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(buildManifest())
}

// writeLedger prints every per-layer metric with what it should move.
func writeLedger(w io.Writer) {
	defs := append([]metricDef(nil), perLayer...)
	sort.SliceStable(defs, func(i, j int) bool { return defs[i].Name < defs[j].Name })
	for _, d := range defs {
		fmt.Fprintf(w, "%-36s %-8s %-6s -> %s\n", d.Name, d.Unit, d.Better, d.Moves)
	}
}
