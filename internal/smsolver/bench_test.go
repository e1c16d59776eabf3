package smsolver

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"eul3d/internal/euler"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/reorder"
)

// BenchmarkStep measures one full RK time step of the pool engine per
// worker count on the 64x32x20 channel, the mesh of cmd/bench's single_grid
// workload, as generated ("natural"), with its vertices and elements
// shuffled by reorder.Scramble ("scrambled": no locality, about half the
// edges join two workers' vertex ranges at two workers and are computed
// twice), and scrambled then renumbered by reorder.RCMMesh
// ("scrambled+rcm"). Each row reports cut-%, the share of the mesh's edges
// that two workers' ranges split. With the persistent pool every iteration
// should report 0 allocs/op; `make bench` runs cmd/benchsm for the JSON
// artifact.
func BenchmarkStep(b *testing.B) {
	nat, err := meshgen.Channel(meshgen.DefaultChannel(64, 32, 20, 17))
	if err != nil {
		b.Fatal(err)
	}
	scr, err := reorder.Scramble(nat, 3)
	if err != nil {
		b.Fatal(err)
	}
	rcm, err := reorder.RCMMesh(scr)
	if err != nil {
		b.Fatal(err)
	}
	p := euler.DefaultParams(0.675, 0)
	for _, tc := range []struct {
		name string
		m    *mesh.Mesh
	}{{"natural", nat}, {"scrambled", scr}, {"scrambled+rcm", rcm}} {
		for _, nw := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", tc.name, nw), func(b *testing.B) {
				s, err := New(tc.m, p, nw)
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				w := make([]euler.State, tc.m.NV())
				s.InitUniform(w)
				s.Step(w, nil) // warm the worker stacks
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Step(w, nil)
				}
				b.ReportMetric(100*cutShare(s.le), "cut-%")
			})
		}
	}
}

// cutShare returns the share of le's mesh's edges that its workers' vertex
// ranges split: those listed, and computed, twice.
func cutShare(le *levelEngine) float64 {
	ne := le.d.M.NE()
	if ne == 0 {
		return 0
	}
	return float64(len(le.lay.edges)-ne) / float64(ne)
}

// BenchmarkSerialCutoff asks whether a serial cutoff would pay: one step of
// the benchmark sequence's three coarser levels on one worker, where every
// region runs inline on the caller, against the same mesh pooled over two.
// A round times one step of each, back to back (interleaved because this
// host's speed wanders over minutes: rows timed one after another cannot be
// compared); the row reports the two medians, the median of the per-round
// pooled/inline ratio and the level's cut-% at two workers. At a region cost of a thread
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
			b.ReportMetric(100*cutShare(eng[1].le), "cut-%")
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
