package smsolver

import (
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/meshgen"
	"eul3d/internal/refine"
)

// The in-place rebuild against a from-scratch engine build at paper scale
// (~14k cells, ~5% marked). Both color and permute by the same routine; the
// rebuild saves the allocation and the pool (TestRebuildAllocatesNothing
// pins the former).
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
	if err := s.Rebuild(r.Mesh, p); err != nil {
		b.Fatal(err)
	}
	return p, s, r
}

func BenchmarkRebuildIncremental(b *testing.B) {
	p, s, r := bigRefined(b)
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Rebuild(r.Mesh, p); err != nil {
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
