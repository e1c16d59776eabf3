// Package eul3d's root benchmark suite: one benchmark per table and figure
// of the paper's evaluation section. Each benchmark regenerates its
// experiment end to end (mesh generation, preprocessing, solver or machine
// model) at a reduced scale so that `go test -bench=.` completes in
// minutes; cmd/benchtables runs the same experiments at the full default
// scale and beyond (-scale).
package eul3d

import (
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"eul3d/internal/dmsolver"
	"eul3d/internal/euler"
	"eul3d/internal/graph"
	"eul3d/internal/machine"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/multigrid"
	"eul3d/internal/partition"
	"eul3d/internal/smsolver"
	"eul3d/internal/solver"
	"eul3d/internal/tables"
)

// benchConfig is the reduced-scale workload for the root benchmarks.
func benchConfig() tables.Config {
	return tables.Config{
		NX: 24, NY: 12, NZ: 8,
		Levels:   3,
		Mach:     0.768,
		AlphaDeg: 1.116,
		Seed:     17,
		Cycles:   100,
	}
}

func benchTable1(b *testing.B, strategy tables.Strategy) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := tables.Table1(cfg, strategy, &machine.C90)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 5 {
			b.Fatal("bad table")
		}
		if i == 0 {
			b.Logf("\n%s", t.String())
		}
	}
}

// BenchmarkTable1a regenerates Table 1a: Y-MP C90 speeds, single grid.
func BenchmarkTable1a(b *testing.B) { benchTable1(b, tables.SingleGrid) }

// BenchmarkTable1b regenerates Table 1b: Y-MP C90 speeds, V-cycle.
func BenchmarkTable1b(b *testing.B) { benchTable1(b, tables.VCycle) }

// BenchmarkTable1c regenerates Table 1c: Y-MP C90 speeds, W-cycle.
func BenchmarkTable1c(b *testing.B) { benchTable1(b, tables.WCycle) }

func benchTable2(b *testing.B, strategy tables.Strategy) {
	cfg := benchConfig()
	nodes := []int{16, 32}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := tables.Table2(cfg, strategy, nodes, partition.Spectral, &machine.Delta)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 2 {
			b.Fatal("bad table")
		}
		if i == 0 {
			b.Logf("\n%s", t.String())
		}
	}
}

// BenchmarkTable2a regenerates Table 2a: Touchstone Delta speeds, single
// grid (reduced node counts; cmd/benchtables runs 256/512).
func BenchmarkTable2a(b *testing.B) { benchTable2(b, tables.SingleGrid) }

// BenchmarkTable2b regenerates Table 2b: Delta speeds, V-cycle.
func BenchmarkTable2b(b *testing.B) { benchTable2(b, tables.VCycle) }

// BenchmarkTable2c regenerates Table 2c: Delta speeds, W-cycle.
func BenchmarkTable2c(b *testing.B) { benchTable2(b, tables.WCycle) }

// BenchmarkFigure1 regenerates the multigrid cycle diagrams of Figure 1.
func BenchmarkFigure1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(tables.Figure1()) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure2 runs the convergence-history experiment of Figure 2
// (single grid vs V vs W) for a short horizon per iteration.
func BenchmarkFigure2(b *testing.B) {
	cfg := benchConfig()
	cfg.Cycles = 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := tables.Figure2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Series) != 3 {
			b.Fatal("missing series")
		}
	}
}

// BenchmarkFigure3 regenerates the mesh-sequence statistics of Figure 3.
func BenchmarkFigure3(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := tables.Figure3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(s) == 0 {
			b.Fatal("empty figure")
		}
	}
}

var fig4Once struct {
	sync.Once
	mg  *smsolver.Multigrid
	err error
}

// BenchmarkFigure4 extracts the Mach-contour raster of Figure 4 from a
// converged W-cycle solution (computed once, outside the timed loop).
func BenchmarkFigure4(b *testing.B) {
	fig4Once.Do(func() {
		cfg := benchConfig()
		meshes, err := cfg.Meshes(tables.WCycle)
		if err != nil {
			fig4Once.err = err
			return
		}
		st, err := solver.Open(meshes, euler.DefaultParams(cfg.Mach, cfg.AlphaDeg), solver.Config{Kind: solver.KindMG, Gamma: 2})
		if err != nil {
			fig4Once.err = err
			return
		}
		for c := 0; c < 60; c++ {
			st.MG.Cycle()
		}
		fig4Once.mg = st.MG
	})
	if fig4Once.err != nil {
		b.Fatal(fig4Once.err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := tables.Figure4(fig4Once.mg, 78, 24)
		if f.MaxM <= 0 {
			b.Fatal("bad Mach field")
		}
	}
}

// BenchmarkSolverCycle measures the raw cost of one W-cycle on the bench
// mesh — the unit of work behind every table.
func BenchmarkSolverCycle(b *testing.B) {
	cfg := benchConfig()
	meshes, err := cfg.Meshes(tables.WCycle)
	if err != nil {
		b.Fatal(err)
	}
	mg, err := multigrid.New(meshes, euler.DefaultParams(cfg.Mach, cfg.AlphaDeg), 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mg.Cycle()
	}
}

// BenchmarkEdgeLoop measures the core convective edge kernel in isolation:
// the loop the whole paper is about vectorizing and distributing.
func BenchmarkEdgeLoop(b *testing.B) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(24, 12, 8, 17))
	if err != nil {
		b.Fatal(err)
	}
	p := euler.DefaultParams(0.768, 1.116)
	d := euler.NewDisc(m, p)
	w := make([]euler.State, m.NV())
	d.InitUniform(w)
	res := make([]euler.State, m.NV())
	b.SetBytes(int64(m.NE()) * 16) // two endpoint indices per edge
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Residual(w, nil, res)
	}
}

// cpuClock is where a timed loop started, in process CPU time and in
// wall time.
type cpuClock struct {
	cpu  time.Duration
	wall time.Time
}

// processCPU returns the CPU time, user and system, the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startCPU() cpuClock { return cpuClock{processCPU(), time.Now()} }

// report adds cpu-%: the process CPU time since c over the wall time, so
// 200 is two cores busy throughout. A 2-worker loop reading ~100 got one
// core's worth of CPU, whatever its ns/op says.
func (c cpuClock) report(b *testing.B) {
	b.ReportMetric(100*float64(processCPU()-c.cpu)/float64(time.Since(c.wall)), "cpu-%")
}

// BenchmarkSharedMemoryStep measures one colored-parallel time step (the
// shared-memory port's unit of work) at GOMAXPROCS workers, with cpu-%.
func BenchmarkSharedMemoryStep(b *testing.B) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(24, 12, 8, 17))
	if err != nil {
		b.Fatal(err)
	}
	s, err := smsolver.New(m, euler.DefaultParams(0.768, 1.116), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	w := make([]euler.State, m.NV())
	s.InitUniform(w)
	b.ReportAllocs()
	b.ResetTimer()
	cpu := startCPU()
	for i := 0; i < b.N; i++ {
		s.Step(w, nil)
	}
	cpu.report(b)
}

// BenchmarkDistributedCycle measures one distributed cycle, all PARTI
// exchanges included, on the executor's three shapes: "single" is the
// single grid on 16 simulated nodes, "w2" a 2-level W-cycle on 8 (the shape
// of the benchmark's distributed workload); "w1" runs Cycle on one worker
// (the solver built at GOMAXPROCS 1), "wN" Cycle on min(P, GOMAXPROCS)
// workers — the -cpu setting — and "mimd" CycleConcurrent, a worker per
// node, each with cpu-%. It is the quick before/after number for a change
// to dmsolver, parti or simnet.
func BenchmarkDistributedCycle(b *testing.B) {
	meshes, err := meshgen.Sequence(meshgen.DefaultChannel(24, 12, 8, 17), 2)
	if err != nil {
		b.Fatal(err)
	}
	p := euler.DefaultParams(0.768, 1.116)
	for _, shape := range []struct {
		name   string
		levels int
		nproc  int
	}{{"single", 1, 16}, {"w2", 2, 8}} {
		part, err := spectralParts(meshes[0], shape.nproc)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name  string
			one   bool // build at GOMAXPROCS 1, which fixes Cycle at one worker
			cycle func(*dmsolver.Solver) (float64, error)
		}{{"w1", true, (*dmsolver.Solver).Cycle}, {"wN", false, (*dmsolver.Solver).Cycle}, {"mimd", false, (*dmsolver.Solver).CycleConcurrent}} {
			b.Run(shape.name+"/"+mode.name, func(b *testing.B) {
				parts := make([][]int32, shape.levels)
				parts[0] = part
				procs := runtime.GOMAXPROCS(0)
				if mode.one {
					runtime.GOMAXPROCS(1)
				}
				dm, err := dmsolver.NewMultigrid(meshes[:shape.levels], parts, shape.nproc, p, 2)
				runtime.GOMAXPROCS(procs)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				cpu := startCPU()
				for i := 0; i < b.N; i++ {
					if _, err := mode.cycle(dm); err != nil {
						b.Fatal(err)
					}
				}
				cpu.report(b)
			})
		}
	}
}

// BenchmarkSetup times whole multilevel builds in ms/build, at the
// benchmark's set-up shapes: "wcycle" generates a 4-level sequence on the
// 64x32x20 channel and builds the pooled W-cycle engine on it (GOMAXPROCS
// workers); "distributed" generates a 2-level sequence on the 48x24x16
// channel, partitions both levels spectrally 8 ways and builds the
// distributed W-cycle on them.
func BenchmarkSetup(b *testing.B) {
	p := euler.DefaultParams(0.675, 0)
	b.Run("wcycle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			meshes, err := meshgen.Sequence(meshgen.DefaultChannel(64, 32, 20, 1), 4)
			if err != nil {
				b.Fatal(err)
			}
			mg, err := smsolver.NewMultigrid(meshes, p, 2, 0)
			if err != nil {
				b.Fatal(err)
			}
			mg.Close()
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/build")
	})
	b.Run("distributed", func(b *testing.B) {
		const nproc = 8
		for i := 0; i < b.N; i++ {
			meshes, err := meshgen.Sequence(meshgen.DefaultChannel(48, 24, 16, 1), 2)
			if err != nil {
				b.Fatal(err)
			}
			parts := make([][]int32, len(meshes))
			for l, m := range meshes {
				if parts[l], err = spectralParts(m, nproc); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := dmsolver.NewMultigrid(meshes, parts, nproc, p, 2); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/build")
	})
}

// spectralParts partitions m's vertex graph spectrally into nproc parts.
func spectralParts(m *mesh.Mesh, nproc int) ([]int32, error) {
	g, err := graph.FromEdges(m.NV(), m.Edges)
	if err != nil {
		return nil, err
	}
	return partition.Partition(g, m.X, nproc, partition.Spectral, 1)
}
