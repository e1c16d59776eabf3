package adapt

import (
	"testing"

	"eul3d/internal/dmsolver"
	"eul3d/internal/graph"
	"eul3d/internal/partition"
	"eul3d/internal/refine"
	"eul3d/internal/scenario"
)

// TestAdaptedMeshRepartition is the distributed half of the rebuild
// contract: after an adaptation epoch the adapted mesh must repartition
// cleanly and a distributed solver built on it (partitioner + fresh PARTI
// gather/scatter schedules, rebuilt by construction) must accept the
// transferred solution and keep integrating.
func TestAdaptedMeshRepartition(t *testing.T) {
	sc := scenario.Sod
	ms, err := sc.Meshes(1)
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	p := sc.Params()
	w := sc.InitialState(m)

	ind, err := newIndicator("density")
	if err != nil {
		t.Fatal(err)
	}
	eta, err := ind.compute(m, w, p)
	if err != nil {
		t.Fatal(err)
	}
	marked, n := markCells(eta, 0.1, 4*m.NT(), m.NT())
	if n == 0 {
		t.Fatal("nothing marked on the Sod diaphragm")
	}
	r, err := refine.Selective(m, marked)
	if err != nil {
		t.Fatal(err)
	}
	wNew := Transfer(r, w, &p)

	g, err := graph.FromEdges(r.Mesh.NV(), r.Mesh.Edges)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Partition(g, r.Mesh.X, 4, partition.Spectral, 1)
	if err != nil {
		t.Fatalf("repartition of adapted mesh: %v", err)
	}
	s, err := dmsolver.NewSingle(r.Mesh, part, 4, p)
	if err != nil {
		t.Fatalf("distributed solver on adapted mesh: %v", err)
	}
	if err := s.SetFineSolution(wNew); err != nil {
		t.Fatalf("transferred solution rejected: %v", err)
	}
	res, err := s.Run(dmsolver.RunOptions{MaxCycles: 5})
	if err != nil {
		t.Fatalf("run on adapted partitions: %v", err)
	}
	if len(res.History) != 5 {
		t.Fatalf("ran %d cycles, want 5", len(res.History))
	}
	for i, h := range res.History {
		if !(h > 0) || h != h {
			t.Fatalf("cycle %d norm %g not finite/positive", i, h)
		}
	}
	sol := s.GatherSolution()
	for i, st := range sol {
		if !(st[0] > 0) || !(p.Gas.Pressure(st) > 0) {
			t.Fatalf("vertex %d inadmissible after distributed steps: rho=%g", i, st[0])
		}
	}
}
