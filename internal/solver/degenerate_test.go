package solver

import (
	"math"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
)

// TestEmptyMeshRun: a zero-vertex mesh must run (trivially) without
// panicking in either driver — the smoother used to index into the empty
// residual slice.
func TestEmptyMeshRun(t *testing.T) {
	m := &mesh.Mesh{}
	if err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	p := euler.DefaultParams(0.5, 0)

	st := NewSingleGrid(m, p)
	if _, err := st.Run(Options{MaxCycles: 2}); err != nil {
		t.Fatalf("single grid on empty mesh: %v", err)
	}

	sm, err := Open([]*mesh.Mesh{m}, p, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	if _, err := sm.Run(Options{MaxCycles: 2}); err != nil {
		t.Fatalf("shared memory on empty mesh: %v", err)
	}
}

// TestSharedMemoryMatchesSingleGrid runs the pool-engine Steady next to the
// sequential one and requires residual histories and solutions to agree
// bit for bit, with per-phase stats accumulated on both.
func TestSharedMemoryMatchesSingleGrid(t *testing.T) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(10, 6, 4, 17))
	if err != nil {
		t.Fatal(err)
	}
	p := euler.DefaultParams(0.675, 0)

	seq := NewSingleGrid(m, p)
	rseq, err := seq.Run(Options{MaxCycles: 8})
	if err != nil {
		t.Fatal(err)
	}

	par, err := Open([]*mesh.Mesh{m}, p, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	rpar, err := par.Run(Options{MaxCycles: 8})
	if err != nil {
		t.Fatal(err)
	}

	if len(rseq.History) != len(rpar.History) {
		t.Fatalf("history lengths differ: %d vs %d", len(rseq.History), len(rpar.History))
	}
	for c := range rseq.History {
		if math.Float64bits(rseq.History[c]) != math.Float64bits(rpar.History[c]) {
			t.Errorf("cycle %d: residuals differ: %v vs %v", c, rseq.History[c], rpar.History[c])
		}
	}
	for i := range rseq.FineSolution {
		if rseq.FineSolution[i] != rpar.FineSolution[i] {
			t.Fatalf("vertex %d: %v vs %v", i, rseq.FineSolution[i], rpar.FineSolution[i])
		}
	}

	for _, st := range []*Steady{seq, par} {
		if tot := st.Stats().Total(); tot.Seconds <= 0 || tot.Flops <= 0 {
			t.Errorf("implausible stats total: %+v", tot)
		}
	}
	par.Close() // idempotent
}
