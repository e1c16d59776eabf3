package dmsolver

import (
	"math"
	"testing"
	"time"

	"eul3d/internal/euler"
	"eul3d/internal/graph"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/multigrid"
	"eul3d/internal/partition"
)

func channelAndPartition(t *testing.T, nx, ny, nz, nproc int) (*mesh.Mesh, []int32) {
	t.Helper()
	m, err := meshgen.Channel(meshgen.DefaultChannel(nx, ny, nz, 17))
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(m.NV(), m.Edges)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Partition(g, m.X, nproc, partition.Spectral, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m, part
}

// maxRelDiff returns the max relative difference between two solutions.
func maxRelDiff(a, b []euler.State) float64 {
	worst := 0.0
	for i := range a {
		for k := 0; k < euler.NVar; k++ {
			d := math.Abs(a[i][k]-b[i][k]) / (1 + math.Abs(a[i][k]))
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

func TestSingleGridMatchesSequential(t *testing.T) {
	m, part := channelAndPartition(t, 10, 6, 4, 4)
	p := euler.DefaultParams(0.675, 0)

	// Sequential reference.
	seq := euler.NewDisc(m, p)
	wseq := make([]euler.State, m.NV())
	seq.InitUniform(wseq)
	ws := euler.NewStepWorkspace(m.NV())
	var seqNorms []float64
	for c := 0; c < 10; c++ {
		seqNorms = append(seqNorms, seq.Step(wseq, nil, ws))
	}

	// Distributed on 4 simulated processors.
	dm, err := NewSingle(m, part, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 10; c++ {
		norm, err := dm.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(norm-seqNorms[c]) / (1e-30 + seqNorms[c]); rel > 1e-9 {
			t.Errorf("cycle %d: norm %g vs sequential %g", c, norm, seqNorms[c])
		}
	}
	if d := maxRelDiff(dm.GatherSolution(), wseq); d > 1e-9 {
		t.Errorf("solutions diverge: max rel diff %g", d)
	}
}

func TestSingleGridNProc1(t *testing.T) {
	m, _ := channelAndPartition(t, 6, 4, 3, 2)
	part := make([]int32, m.NV()) // everything on processor 0
	p := euler.DefaultParams(0.5, 0)
	dm, err := NewSingle(m, part, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dm.Cycle(); err != nil {
		t.Fatal(err)
	}
	// No communication at all on one processor.
	if msgs, _ := dm.Fabric.TotalStats(); msgs != 0 {
		t.Errorf("1-proc run sent %d messages", msgs)
	}
}

func TestMultigridMatchesSequential(t *testing.T) {
	spec := meshgen.DefaultChannel(12, 8, 6, 17)
	meshes, err := meshgen.Sequence(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := euler.DefaultParams(0.675, 0)

	smg, err := multigrid.New(meshes, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	var seqNorms []float64
	for c := 0; c < 6; c++ {
		seqNorms = append(seqNorms, smg.Cycle())
	}

	g, err := graph.FromEdges(meshes[0].NV(), meshes[0].Edges)
	if err != nil {
		t.Fatal(err)
	}
	finePart, err := partition.Partition(g, meshes[0].X, 4, partition.Spectral, 1)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := NewMultigrid(meshes, [][]int32{finePart, nil, nil}, 4, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 6; c++ {
		norm, err := dm.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(norm-seqNorms[c]) / (1e-30 + seqNorms[c]); rel > 1e-8 {
			t.Errorf("cycle %d: norm %g vs sequential %g", c, norm, seqNorms[c])
		}
	}
	if d := maxRelDiff(dm.GatherSolution(), smg.Fine().W); d > 1e-8 {
		t.Errorf("multigrid solutions diverge: max rel diff %g", d)
	}
}

// TestDeepMultigridMatchesSequential is the regression test for stale
// ghosts on middle levels. On a level that is both a prolongation source
// and a restriction source (level >= 1 of a >= 3-level sequence) the
// incremental restriction schedule leaves out the ghost slots the level's
// own prolongation schedule allocated, and W never travelled through that
// one — restriction read freestream-initialised ghosts there and the
// W-cycle drifted from the serial multigrid at the 1e-3 level. It takes
// independent per-level partitions to show: with inherited ones (as in
// TestMultigridMatchesSequential) nearly every transfer address is local.
func TestDeepMultigridMatchesSequential(t *testing.T) {
	const nproc, cycles = 8, 10
	p := euler.DefaultParams(0.675, 0)
	for _, levels := range []int{3, 4} {
		meshes, err := meshgen.Sequence(meshgen.DefaultChannel(24, 12, 8, 17), levels)
		if err != nil {
			t.Fatal(err)
		}
		parts := make([][]int32, levels)
		for l, m := range meshes {
			g, err := graph.FromEdges(m.NV(), m.Edges)
			if err != nil {
				t.Fatal(err)
			}
			if parts[l], err = partition.Partition(g, m.X, nproc, partition.Spectral, 1); err != nil {
				t.Fatal(err)
			}
		}
		smg, err := multigrid.New(meshes, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		seqNorms := make([]float64, cycles)
		for c := range seqNorms {
			seqNorms[c] = smg.Cycle()
		}
		for _, mode := range []struct {
			name  string
			cycle func(*Solver) (float64, error)
		}{
			{"sequential", (*Solver).Cycle},
			{"concurrent", (*Solver).CycleConcurrent},
		} {
			dm, err := NewMultigrid(meshes, parts, nproc, p, 2)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < cycles; c++ {
				norm, err := mode.cycle(dm)
				if err != nil {
					t.Fatal(err)
				}
				if rel := math.Abs(norm-seqNorms[c]) / seqNorms[c]; rel > 1e-10 {
					t.Fatalf("%d levels, %s, cycle %d: norm %g vs serial %g (rel %.2g)", levels, mode.name, c, norm, seqNorms[c], rel)
				}
			}
			if d := maxRelDiff(dm.GatherSolution(), smg.Fine().W); d > 1e-10 {
				t.Errorf("%d levels, %s: solutions diverge: max rel diff %g", levels, mode.name, d)
			}
		}
	}
}

func TestFreestreamNoDrift(t *testing.T) {
	spec := meshgen.DefaultChannel(8, 6, 4, 17)
	spec.BumpHeight = 0
	m, err := meshgen.Channel(spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(m.NV(), m.Edges)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Partition(g, m.X, 3, partition.Inertial, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := euler.DefaultParams(0.6, 0)
	dm, err := NewSingle(m, part, 3, p)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		norm, err := dm.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		if norm > 1e-11 {
			t.Errorf("cycle %d: freestream residual %g", c, norm)
		}
	}
}

func TestCommCountersAdvance(t *testing.T) {
	m, part := channelAndPartition(t, 8, 5, 4, 4)
	p := euler.DefaultParams(0.6, 0)
	dm, err := NewSingle(m, part, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dm.Cycle(); err != nil {
		t.Fatal(err)
	}
	c := dm.Comm
	// Per 5-stage step: >=5 w gathers, 5 convective scatters, 2 dissipation
	// rounds, 1 lam scatter, 10 smoothing exchanges.
	if c.GatherState < 5 || c.ScatterState < 7 || c.ScatterFloat < 1 {
		t.Errorf("implausible comm counters: %+v", c)
	}
	msgs, bytes := dm.Fabric.TotalStats()
	if msgs == 0 || bytes == 0 {
		t.Error("no traffic recorded on the fabric")
	}
	t.Logf("one cycle on 4 procs: %d msgs, %d bytes, counters %+v", msgs, bytes, c)
}

func TestBuildValidation(t *testing.T) {
	m, part := channelAndPartition(t, 5, 4, 3, 2)
	p := euler.DefaultParams(0.5, 0)
	if _, err := NewSingle(m, part, 0, p); err == nil {
		t.Error("accepted nproc=0")
	}
	if _, err := NewSingle(m, part[:5], 2, p); err == nil {
		t.Error("accepted short partition")
	}
	if _, err := build(nil, nil, 2, p, 1); err == nil {
		t.Error("accepted empty mesh list")
	}
	// A processor owning nothing is legal (the paper's coarsest grids had
	// fewer points than the Delta had nodes): the run must still be
	// correct, with processor 1 idle.
	idle := make([]int32, m.NV()) // all on proc 0 out of 2
	dmIdle, err := NewSingle(m, idle, 2, p)
	if err != nil {
		t.Fatalf("empty processor rejected: %v", err)
	}
	if _, err := dmIdle.Cycle(); err != nil {
		t.Errorf("cycle with idle processor: %v", err)
	}
	if _, err := NewMultigrid([]*mesh.Mesh{m}, [][]int32{nil}, 2, p, 1); err == nil {
		t.Error("accepted nil fine partition")
	}
}

func TestConcurrentMatchesSequentialBitwise(t *testing.T) {
	m, part := channelAndPartition(t, 10, 6, 4, 4)
	p := euler.DefaultParams(0.675, 0)

	seq, err := NewSingle(m, part, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := NewSingle(m, part, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 8; c++ {
		ns, err := seq.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		nc, err := conc.CycleConcurrent()
		if err != nil {
			t.Fatal(err)
		}
		if ns != nc {
			t.Fatalf("cycle %d: norms differ: %v vs %v", c, ns, nc)
		}
	}
	ws, wc := seq.GatherSolution(), conc.GatherSolution()
	for i := range ws {
		if ws[i] != wc[i] {
			t.Fatalf("vertex %d differs between sequential and concurrent orchestration", i)
		}
	}
	// Identical traffic, too.
	ms, bs := seq.Fabric.TotalStats()
	mc, bc := conc.Fabric.TotalStats()
	if ms != mc || bs != bc {
		t.Errorf("traffic differs: %d/%d vs %d/%d", ms, bs, mc, bc)
	}
	if seq.Comm != conc.Comm {
		t.Errorf("counters differ: %+v vs %+v", seq.Comm, conc.Comm)
	}
}

func TestConcurrentMultigridMatchesSequential(t *testing.T) {
	spec := meshgen.DefaultChannel(10, 6, 4, 17)
	meshes, err := meshgen.Sequence(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(meshes[0].NV(), meshes[0].Edges)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Partition(g, meshes[0].X, 5, partition.Spectral, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := euler.DefaultParams(0.675, 0)
	mk := func() *Solver {
		dm, err := NewMultigrid(meshes, [][]int32{append([]int32(nil), part...), nil, nil}, 5, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		return dm
	}
	seq, conc := mk(), mk()
	for c := 0; c < 4; c++ {
		ns, err := seq.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		nc, err := conc.CycleConcurrent()
		if err != nil {
			t.Fatal(err)
		}
		if ns != nc {
			t.Fatalf("cycle %d: norms differ: %v vs %v", c, ns, nc)
		}
	}
	ws, wc := seq.GatherSolution(), conc.GatherSolution()
	for i := range ws {
		if ws[i] != wc[i] {
			t.Fatalf("vertex %d differs (multigrid)", i)
		}
	}
}

func TestConcurrentSingleProc(t *testing.T) {
	m, _ := channelAndPartition(t, 6, 4, 3, 2)
	part := make([]int32, m.NV())
	p := euler.DefaultParams(0.5, 0)
	dm, err := NewSingle(m, part, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dm.CycleConcurrent(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentErrorPropagatesWithoutDeadlock(t *testing.T) {
	m, part := channelAndPartition(t, 8, 5, 4, 4)
	p := euler.DefaultParams(0.6, 0)
	dm, err := NewSingle(m, part, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	// Inject a stray runt message into a communicating pair: the first
	// gather's receive pops it, fails the length check, and every
	// processor must bail out at the next barrier instead of deadlocking.
	var from, to int
	for pair := range dm.Levels[0].SchedW.PairVolumes() {
		from, to = pair[0], pair[1]
		break
	}
	if err := dm.Fabric.Send(from, to, []float64{42}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := dm.CycleConcurrent()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("corrupted traffic did not surface an error")
		}
	case <-timeAfter():
		t.Fatal("CycleConcurrent deadlocked on error")
	}
}

func timeAfter() <-chan time.Time { return time.After(30 * time.Second) }
