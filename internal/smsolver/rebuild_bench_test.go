package smsolver

import (
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/meshgen"
	"eul3d/internal/refine"
)

// The incremental-vs-from-scratch rebuild comparison at paper scale
// (~14k cells, ~5% marked). On this mesh the incremental path wins
// wall-clock as well as allocation; on smoke-sized meshes the fixed
// costs favor the from-scratch build (see TestIncrementalRebuildCheaper,
// which asserts the load-independent allocation ratio instead).
//
//	go test -bench BenchmarkRebuild -benchtime 100x ./internal/smsolver/

func bigRefined(b *testing.B) (euler.Params, *Solver, *refine.Refined) {
	p := euler.DefaultParams(0.675, 0)
	ms, err := meshgen.Sequence(meshgen.DefaultChannel(24, 12, 8, 1), 1)
	if err != nil {
		b.Fatal(err)
	}
	m := ms[0]
	marked := make([]bool, m.NT())
	for i := 0; i < m.NT()/20; i++ {
		marked[i*13%m.NT()] = true
	}
	r, err := refine.Selective(m, marked)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(m, p, 2)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Rebuild(r.Mesh, p); err != nil {
		b.Fatal(err)
	}
	return p, s, r
}

func BenchmarkRebuildIncremental(b *testing.B) {
	p, s, r := bigRefined(b)
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Rebuild(r.Mesh, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRebuildScratch(b *testing.B) {
	p, _, r := bigRefined(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := New(unshared(r.Mesh), p, 2)
		if err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}
