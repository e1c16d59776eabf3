package smsolver

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"eul3d/internal/color"
	"eul3d/internal/euler"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/perf"
)

// BenchmarkStep measures one full RK time step of the pool engine per
// worker count on the 64x32x20 channel, the mesh of cmd/bench's single_grid
// workload. With the persistent pool every iteration should report
// 0 allocs/op; `make bench` runs cmd/benchsm for the JSON artifact.
func BenchmarkStep(b *testing.B) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(64, 32, 20, 17))
	if err != nil {
		b.Fatal(err)
	}
	p := euler.DefaultParams(0.675, 0)
	for _, nw := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", nw), func(b *testing.B) {
			s, err := New(m, p, nw)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			w := make([]euler.State, m.NV())
			s.InitUniform(w)
			s.Step(w, nil) // warm the worker stacks
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step(w, nil)
			}
		})
	}
}

// BenchmarkBuildLayout times the layout build on the benchmark's fine mesh:
// block coloring of edges and faces, permutation into the view, adjacency —
// what New pays once per mesh and Rebuild once per adaptive epoch.
func BenchmarkBuildLayout(b *testing.B) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(64, 32, 20, 17))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := buildLayout(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunLength is the experiment behind the layout's run-length rule
// (EXPERIMENTS.md, "Run length"): one pooled step at 1 and 2 workers on the
// three upper levels of the benchmark's sequence, with the edge list cut
// into runs of a forced B — B = 1 is the per-edge coloring the engine used
// before it colored runs — and of the rule's choice (B = 0). A round builds
// an engine per B, warms it and times two steps, keeping the faster; the row
// reports the median round per B. Interleaved by round because this host's
// speed wanders over minutes: rows timed one after another cannot be
// compared. groups and min-runs (the run count of the smallest group, what
// bounds how many workers it can feed) describe the layout.
func BenchmarkRunLength(b *testing.B) {
	seq, err := meshgen.Sequence(meshgen.DefaultChannel(64, 32, 20, 1), 3)
	if err != nil {
		b.Fatal(err)
	}
	p := euler.DefaultParams(0.675, 0)
	runLengths := []int{1, 256, 512, 1024, 2048, 4096, 0}

	engineAt := func(m *mesh.Mesh, runLength, nw int) *Solver {
		lay := &layout{view: &mesh.Mesh{}}
		if runLength == 0 {
			if err := lay.fill(m); err != nil {
				b.Fatal(err)
			}
		} else {
			lay.tris = make([][3]int32, len(m.BFaces))
			for i := range lay.tris {
				lay.tris[i] = m.BFaces[i].V
			}
			if _, err := color.BlockedInto(&lay.edges, m.NV(), m.Edges, runLength, 0); err != nil {
				b.Fatal(err)
			}
			if err := colorBlocks(&lay.faces, m.NV(), lay.tris); err != nil {
				b.Fatal(err)
			}
			lay.permute(m)
		}
		le := newLevelEngine(lay, p, nw)
		s := &Solver{D: le.d, NWorkers: nw, le: le}
		s.eng.init(nw, perf.NewAccum(phaseNames[:]...))
		return s
	}

	for _, m := range seq {
		for _, nw := range []int{1, 2} {
			b.Run(fmt.Sprintf("edges=%d/workers=%d", m.NE(), nw), func(b *testing.B) {
				ms := make([][]float64, len(runLengths))
				w := make([]euler.State, m.NV())
				groups, minRuns := make([]int, len(runLengths)), make([]int, len(runLengths))
				for r := 0; r < b.N; r++ {
					for k := range runLengths {
						i := (r + k) % len(runLengths) // rotate, so no B always follows the same one
						rl := runLengths[i]
						s := engineAt(m, rl, nw)
						s.InitUniform(w)
						s.Step(w, nil)
						best := math.Inf(1)
						for k := 0; k < 2; k++ {
							t0 := time.Now()
							s.Step(w, nil)
							best = min(best, float64(time.Since(t0).Microseconds())/1e3)
						}
						ms[i] = append(ms[i], best)
						bl := &s.le.lay.edges
						groups[i], minRuns[i] = bl.NumColors(), bl.NumRuns()
						for g := 0; g < bl.NumColors(); g++ {
							minRuns[i] = min(minRuns[i], len(bl.GroupRuns(g))-1)
						}
						s.Close()
					}
				}
				for i, rl := range runLengths {
					name := fmt.Sprintf("B%d", rl)
					if rl == 0 {
						name = fmt.Sprintf("rule%d", max(minRun, min(m.NE()/runsWanted, maxRun)))
					}
					sort.Float64s(ms[i])
					b.ReportMetric(ms[i][b.N/2], name+"-ms")
					b.ReportMetric(float64(groups[i]), name+"-groups")
					b.ReportMetric(float64(minRuns[i]), name+"-min-runs")
				}
			})
		}
	}
}

// BenchmarkSerialCutoff asks whether a serial cutoff would pay: one step of
// the benchmark sequence's three coarser levels on one worker, where every
// region runs inline on the caller, against the same mesh pooled over two.
// A round times one step of each, back to back (interleaved for the reason
// BenchmarkRunLength gives); the row reports the two medians and the median
// of the per-round pooled/inline ratio. At a region cost of a thread
// wake-up the engine kept levels below 8,192 edges inline; with workers
// that poll for the next fork, two workers win on every level the
// per-worker minimum (minChunk) lets them split (EXPERIMENTS.md, "A pool
// that stays awake").
func BenchmarkSerialCutoff(b *testing.B) {
	seq, err := meshgen.Sequence(meshgen.DefaultChannel(64, 32, 20, 1), 4)
	if err != nil {
		b.Fatal(err)
	}
	p := euler.DefaultParams(0.675, 0)
	for _, m := range seq[1:] {
		b.Run(fmt.Sprintf("edges=%d", m.NE()), func(b *testing.B) {
			var eng [2]*Solver
			var w [2][]euler.State
			for i := range eng {
				if eng[i], err = New(m, p, i+1); err != nil {
					b.Fatal(err)
				}
				defer eng[i].Close()
				w[i] = make([]euler.State, m.NV())
				eng[i].InitUniform(w[i])
				eng[i].Step(w[i], nil)
			}
			var inline, pooled, ratio []float64
			b.ResetTimer()
			for r := 0; r < b.N; r++ {
				var ms [2]float64
				for i := range eng {
					t0 := time.Now()
					eng[i].Step(w[i], nil)
					ms[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
				}
				inline, pooled, ratio = append(inline, ms[0]), append(pooled, ms[1]), append(ratio, ms[1]/ms[0])
			}
			for _, row := range []struct {
				unit    string
				samples []float64
			}{{"inline-ms", inline}, {"pooled-w2-ms", pooled}, {"pooled/inline", ratio}} {
				sort.Float64s(row.samples)
				b.ReportMetric(row.samples[b.N/2], row.unit)
			}
		})
	}
}

// BenchmarkNormPartials measures the cost of concurrent writers
// accumulating into adjacent norm-block partials in the packed layout
// (plain []float64 — partials of neighbouring blocks share cache lines,
// so writers at a chunk boundary false-share) against the padded
// []normSlot layout the engine uses (one 64-byte line per partial).
// On a multi-core host the packed variant degrades as GOMAXPROCS grows;
// with one core the two coincide — the bench records the layout cost
// either way.
func BenchmarkNormPartials(b *testing.B) {
	nw := runtime.GOMAXPROCS(0)
	const blocksPerWorker = 4

	b.Run("packed", func(b *testing.B) {
		partial := make([]float64, nw*blocksPerWorker)
		var wg sync.WaitGroup
		b.ResetTimer()
		for wk := 0; wk < nw; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				base := wk * blocksPerWorker
				for it := 0; it < b.N; it++ {
					for blk := 0; blk < blocksPerWorker; blk++ {
						partial[base+blk] += 1.5
					}
				}
			}(wk)
		}
		wg.Wait()
		benchSink = partial[0]
	})

	b.Run("padded", func(b *testing.B) {
		partial := make([]normSlot, nw*blocksPerWorker)
		var wg sync.WaitGroup
		b.ResetTimer()
		for wk := 0; wk < nw; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				base := wk * blocksPerWorker
				for it := 0; it < b.N; it++ {
					for blk := 0; blk < blocksPerWorker; blk++ {
						partial[base+blk].v += 1.5
					}
				}
			}(wk)
		}
		wg.Wait()
		benchSink = partial[0].v
	})
}

// benchSink defeats dead-code elimination of the benchmark accumulators.
var benchSink float64
