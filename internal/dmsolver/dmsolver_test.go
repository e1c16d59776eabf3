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
	"eul3d/internal/parti"
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

// planRow is n executions of one exchange of the plan: a schedule run in
// one direction, every message carrying width floats per scheduled item.
type planRow struct {
	what  string
	n     int
	sched *parti.Schedule
	dir   parti.Dir
	width int // floats per item: 5 a state array, 1 a scalar array
}

// stepPlan is the exchange plan of one five-stage time step on lev, as
// ops.go states it for the default Params (2 dissipation stages, 2
// smoothing sweeps): 24 exchanges, the sweeps' through the edge-loop
// schedule, the smoother's gathers through edge-loop + halo.
func stepPlan(lev *Level) []planRow {
	w := lev.SchedW
	return []planRow{
		{"flow-variable refresh, one a stage", 5, w, parti.Gather, 5},
		{"conv + lapl + Num + Den + Lam, stage 0", 1, w, parti.ScatterAdd, 13},
		{"conv + lapl + Num + Den, the other dissipation stage", 1, w, parti.ScatterAdd, 12},
		{"conv alone, the other stages", 3, w, parti.ScatterAdd, 5},
		{"lapl + shock switch re-gather", 2, w, parti.Gather, 6},
		{"diss", 2, w, parti.ScatterAdd, 5},
		{"residual averaging, 2 sweeps a stage: the iterate, halo included", 10, lev.smoothSched, parti.Gather, 5},
	}
}

// residualPlan is the plan of one residual evaluation with dissipation
// between steps, its flow-variable refresh — through refresh — included.
func residualPlan(lev *Level, refresh *parti.Schedule) []planRow {
	w := lev.SchedW
	return []planRow{
		{"flow-variable refresh", 1, refresh, parti.Gather, 5},
		{"conv + lapl + Num + Den", 1, w, parti.ScatterAdd, 12},
		{"lapl + shock switch re-gather", 1, w, parti.Gather, 6},
		{"diss", 1, w, parti.ScatterAdd, 5},
	}
}

// freshStepPlan is stepPlan less the refresh and the three exchanges of
// stage 0's residual, which the restriction's forcing residual made: the
// plan of a step that directly follows a restriction (multigrid.Levels.Step).
func freshStepPlan(lev *Level) []planRow {
	w := lev.SchedW
	return []planRow{
		{"flow-variable refresh, the stages after the first", 4, w, parti.Gather, 5},
		{"conv + lapl + Num + Den, the other dissipation stage", 1, w, parti.ScatterAdd, 12},
		{"conv alone, the other stages", 3, w, parti.ScatterAdd, 5},
		{"lapl + shock switch re-gather, the other dissipation stage", 1, w, parti.Gather, 6},
		{"diss, the other dissipation stage", 1, w, parti.ScatterAdd, 5},
		{"residual averaging, 2 sweeps a stage: the iterate, halo included", 10, lev.smoothSched, parti.Gather, 5},
	}
}

// cyclePlan is the plan of one cycle from level l down, every coarse level
// but the coarsest visited gamma times, the first visit after each
// restriction fresh: 56 exchanges on two levels.
func cyclePlan(levels []*Level, l, gamma int, fresh bool) []planRow {
	fine := levels[l]
	plan := stepPlan(fine)
	if fresh {
		plan = freshStepPlan(fine)
	}
	if l == len(levels)-1 {
		return plan
	}
	coarse := levels[l+1]
	// The post-step refresh is the restriction's gather too: every ghost of W.
	plan = append(plan, residualPlan(fine, fine.restrictSched)...)
	plan = append(plan, planRow{"restricted residuals home", 1, coarse.transferSched, parti.ScatterAdd, 5})
	// The forcing residual, its scatter-add carrying the spectral radii as
	// stage 0's does.
	plan = append(plan,
		planRow{"flow-variable refresh", 1, coarse.SchedW, parti.Gather, 5},
		planRow{"conv + lapl + Num + Den + Lam", 1, coarse.SchedW, parti.ScatterAdd, 13},
		planRow{"lapl + shock switch re-gather", 1, coarse.SchedW, parti.Gather, 6},
		planRow{"diss", 1, coarse.SchedW, parti.ScatterAdd, 5},
	)
	visits := gamma
	if l+1 == len(levels)-1 {
		visits = 1
	}
	for v := 0; v < visits; v++ {
		plan = append(plan, cyclePlan(levels, l+1, gamma, v == 0)...)
	}
	return append(plan,
		planRow{"correction out", 1, coarse.transferSched, parti.Gather, 5},
		planRow{"correction smoothing: the iterate, halo included", 2, fine.smoothSched, parti.Gather, 5},
	)
}

// TestCommCountersAdvance pins the exchange plan: the counts of one
// single-grid step, one 2-level and one 3-level W-cycle (whose middle level
// has a SchedCoarse of its own inside its restriction refresh), one message
// per neighbour per exchange — a merged schedule's pairs, not its members'
// — and exactly the bytes the arrays take one at a time (an SoA block's are
// a state array's). No exchange is scalars-only — the sensor sums and the
// spectral radii ride the scatter-add of the sweep that accumulated them,
// the shock switch rides the Laplacian's gather — so the two scalar-led
// counters stay 0. The only scatter-adds left are the sweeps' and the
// restricted residuals': the smoother gathers.
func TestCommCountersAdvance(t *testing.T) {
	p := euler.DefaultParams(0.6, 0)
	check := func(name string, dm *Solver, plan []planRow, want CommCounters) {
		t.Helper()
		if _, err := dm.Cycle(); err != nil {
			t.Fatal(err)
		}
		if dm.Comm != want {
			t.Errorf("%s: counters %+v, want %+v", name, dm.Comm, want)
		}
		var planned CommCounters
		var wantMsgs, wantBytes int64
		for _, r := range plan {
			if r.dir == parti.Gather {
				planned.GatherState += int64(r.n)
			} else {
				planned.ScatterState += int64(r.n)
			}
			wantMsgs += int64(r.n * r.sched.Messages())
			wantBytes += int64(r.n * r.sched.Items() * r.width * 8)
		}
		if planned != want {
			t.Errorf("%s: the plan table lists %+v, want %+v", name, planned, want)
		}
		msgs, bytes := dm.Fabric.TotalStats()
		if msgs != wantMsgs || bytes != wantBytes {
			t.Errorf("%s: %d msgs %d bytes on the fabric, the plan makes it %d and %d", name, msgs, bytes, wantMsgs, wantBytes)
		}
		if msgs == 0 {
			t.Errorf("%s: no traffic recorded on the fabric", name)
		}
	}

	m, part := channelAndPartition(t, 8, 5, 4, 4)
	single, err := NewSingle(m, part, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	check("single-grid step", single, stepPlan(single.Levels[0]),
		CommCounters{GatherState: 17, ScatterState: 7})

	meshes, parts := independentParts(t, meshgen.DefaultChannel(10, 6, 4, 17), 2, 4)
	mg, err := NewMultigrid(meshes, parts, 4, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	check("2-level W-cycle", mg, cyclePlan(mg.Levels, 0, 2, false),
		CommCounters{GatherState: 39, ScatterState: 17})

	// Three levels: the middle one is stepped twice, the first time fresh,
	// restricts twice and has transfer ghosts of both kinds. The finest level
	// adds 24 gathers and 12 scatter-adds to the two 2-level cycles it
	// recurses into, 39 and 17 each, less the first one's fresh step's 2 and
	// 2.
	meshes, parts = independentParts(t, meshgen.DefaultChannel(12, 8, 6, 17), 3, 4)
	if mg, err = NewMultigrid(meshes, parts, 4, p, 2); err != nil {
		t.Fatal(err)
	}
	if mid := mg.Levels[1]; mid.SchedCoarse.Items() == 0 || mg.Levels[2].SchedFine.Items() == 0 {
		t.Fatal("fixture: the middle level's transfer schedules are empty")
	}
	check("3-level W-cycle", mg, cyclePlan(mg.Levels, 0, 2, false),
		CommCounters{GatherState: 24 + 39 + 39 - 2, ScatterState: 12 + 17 + 17 - 2})
}

// independentParts builds a mesh sequence with every level partitioned
// spectrally on its own — the shape of the benchmark's distributed
// workload, where the transfer schedules carry real traffic.
func independentParts(t testing.TB, spec meshgen.ChannelSpec, levels, nproc int) ([]*mesh.Mesh, [][]int32) {
	t.Helper()
	meshes, err := meshgen.Sequence(spec, levels)
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
	return meshes, parts
}

// cycleAllocs returns the heap allocations of one cycle in steady state.
func cycleAllocs(t *testing.T, dm *Solver, cycle func() (float64, error)) float64 {
	t.Helper()
	run := func() {
		if _, err := cycle(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: every pair's buffers reach the size of its longest message
	return testing.AllocsPerRun(5, run)
}

// TestCycleAllocatesNothing: after one warm-up cycle a cycle allocates
// nothing at all on any number of workers — the executor's blocks, barrier,
// norms and pool are built once, and every message is packed in a buffer
// the fabric recycles. AllocsPerRun runs at GOMAXPROCS 1, which does not
// change W: it is fixed here, so W = 2 and W = P still run on the pool.
func TestCycleAllocatesNothing(t *testing.T) {
	const nproc = 4
	p := euler.DefaultParams(0.675, 0)
	for _, n := range [][3]int{{8, 5, 4}, {14, 8, 6}} {
		for _, levels := range []int{1, 2} {
			meshes, parts := independentParts(t, meshgen.DefaultChannel(n[0], n[1], n[2], 17), levels, nproc)
			dm, err := NewMultigrid(meshes, parts, nproc, p, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2} {
				dm.workers = w
				if a := cycleAllocs(t, dm, dm.Cycle); a != 0 {
					t.Errorf("%v, %d level(s), W = %d: Cycle allocates %v objects per cycle, want 0", n, levels, w, a)
				}
			}
			if a := cycleAllocs(t, dm, dm.CycleConcurrent); a != 0 {
				t.Errorf("%v, %d level(s): CycleConcurrent allocates %v objects per cycle, want 0", n, levels, a)
			}
			if len(dm.execs) != 3 {
				t.Errorf("%d executors after cycles at W = 1, 2 and %d, want 3", len(dm.execs), nproc)
			}
		}
	}
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
	base := euler.DefaultParams(0.675, 0)
	globalDt, oddSweeps := base, base
	globalDt.GlobalDt = 1e-3 // time-accurate: stage 0's sweep and scatter-add leave the spectral radii out
	oddSweeps.NSmooth = 1    // odd sweep count: the smoother ends in its scratch array and writes back
	for _, tc := range []struct {
		name string
		p    euler.Params
	}{{"default", base}, {"GlobalDt", globalDt}, {"NSmooth=1", oddSweeps}} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *Solver {
				dm, err := NewMultigrid(meshes, [][]int32{append([]int32(nil), part...), nil, nil}, 5, tc.p, 2)
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
			// One program, so one exchange plan: identical counters and traffic.
			if seq.Comm != conc.Comm {
				t.Errorf("counters differ: %+v vs %+v", seq.Comm, conc.Comm)
			}
			ms, bs := seq.Fabric.TotalStats()
			mc, bc := conc.Fabric.TotalStats()
			if ms != mc || bs != bc {
				t.Errorf("traffic differs: %d/%d vs %d/%d", ms, bs, mc, bc)
			}
		})
	}
}

// NewMultigrid must leave its caller's partition slice alone: inherited
// coarse partitions live on the Levels, so a second solver built from the
// same slice with another fine partition inherits from its own fine grid.
func TestNewMultigridDoesNotFillCallersParts(t *testing.T) {
	meshes, err := meshgen.Sequence(meshgen.DefaultChannel(10, 6, 4, 17), 3)
	if err != nil {
		t.Fatal(err)
	}
	_, fine := channelAndPartition(t, 10, 6, 4, 4)
	parts := [][]int32{fine, nil, nil}
	dm, err := NewMultigrid(meshes, parts, 4, euler.DefaultParams(0.675, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	for l := 1; l < len(parts); l++ {
		if parts[l] != nil {
			t.Errorf("NewMultigrid filled parts[%d] of its caller's slice", l)
		}
		if got := dm.Levels[l].Part; len(got) != meshes[l].NV() {
			t.Errorf("Levels[%d].Part has %d entries for %d vertices", l, len(got), meshes[l].NV())
		}
	}
	// Inherited means: each coarse vertex sits with a fine vertex of its
	// containing tetrahedron, so every processor that owns fine vertices
	// here owns coarse ones too.
	owners := map[int32]bool{}
	for _, q := range dm.Levels[1].Part {
		owners[q] = true
	}
	if len(owners) != 4 {
		t.Errorf("inherited level-1 partition uses %d of 4 processors", len(owners))
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
	single, err := NewSingle(m, part, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	// Inject a stray runt message into a communicating pair: the first
	// gather's receive pops it, fails the length check, and every
	// processor must bail out at the next barrier instead of deadlocking.
	var from, to int
	for pair := range single.Levels[0].SchedW.PairVolumes() {
		from, to = pair[0], pair[1]
		break
	}

	// The multigrid row lands the error mid-transfer instead. Slabs along
	// the channel, with the level-1 slabs dealt to the processor two over,
	// make inter-grid partners of processors that share no fine-grid edge:
	// a runt on the channel such a pair's residual scatter-add through
	// Levels[1].SchedCoarse uses stays queued through the whole fine-grid
	// step and is popped during the restriction.
	meshes, err := meshgen.Sequence(meshgen.DefaultChannel(12, 8, 6, 17), 3)
	if err != nil {
		t.Fatal(err)
	}
	slabs := func(m *mesh.Mesh, shift int) []int32 {
		lo, hi := m.X[0].X, m.X[0].X
		for _, x := range m.X {
			lo, hi = math.Min(lo, x.X), math.Max(hi, x.X)
		}
		part := make([]int32, m.NV())
		for v, x := range m.X {
			part[v] = int32((int(3.999*(x.X-lo)/(hi-lo)) + shift) % 4)
		}
		return part
	}
	mg, err := NewMultigrid(meshes, [][]int32{slabs(meshes[0], 0), slabs(meshes[1], 2), nil}, 4, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	mgFrom, mgTo := -1, -1
	fineEdge := mg.Levels[0].SchedW.PairVolumes()
	for pair := range mg.Levels[1].SchedCoarse.PairVolumes() {
		if fineEdge[pair] == 0 && fineEdge[[2]int{pair[1], pair[0]}] == 0 {
			mgFrom, mgTo = pair[1], pair[0] // a scatter-add runs against the gather direction
			break
		}
	}
	if mgFrom < 0 {
		t.Fatal("fixture has no inter-grid pair that is not also a fine-grid pair")
	}

	for _, tc := range []struct {
		name     string
		dm       *Solver
		from, to int
	}{{"single", single, from, to}, {"multigrid", mg, mgFrom, mgTo}} {
		t.Run(tc.name, func(t *testing.T) {
			dm := tc.dm
			if err := dm.Fabric.Send(tc.from, tc.to, []float64{42}); err != nil {
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
			// Mid-transfer means after the fine-grid step: by then the fine
			// solution has left the freestream.
			if dm == mg {
				moved := false
				for _, w := range dm.GatherSolution() {
					moved = moved || w != p.Freestream
				}
				if !moved {
					t.Error("the error landed before the fine-grid step finished")
				}
			}
		})
	}
}

func timeAfter() <-chan time.Time { return time.After(30 * time.Second) }
