package dmsolver

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/meshgen"
	"eul3d/internal/meshio"
	"eul3d/internal/simnet"
)

// chaosSolver builds a 3-processor distributed solver over the standard
// channel fixture.
func chaosSolver(t *testing.T) *Solver {
	t.Helper()
	m, part := channelAndPartition(t, 10, 6, 4, 3)
	s, err := NewSingle(m, part, 3, euler.DefaultParams(0.675, 0))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// chaosPlan schedules at least one of every message fault plus a mid-run
// node crash. Sequence numbers 0..4 all occur within the first cycle (a
// single cycle exchanges many messages per processor pair), so every
// message fault fires before the first periodic checkpoint.
func chaosPlan(crashNode, crashCycle int) *simnet.FaultPlan {
	return simnet.NewFaultPlan(
		simnet.FaultEvent{Kind: simnet.FaultDrop, Src: -1, Dst: -1, Seq: 0},
		simnet.FaultEvent{Kind: simnet.FaultCorrupt, Src: -1, Dst: -1, Seq: 1},
		simnet.FaultEvent{Kind: simnet.FaultDuplicate, Src: -1, Dst: -1, Seq: 2},
		simnet.FaultEvent{Kind: simnet.FaultDelay, Src: -1, Dst: -1, Seq: 3, Delay: 2},
		simnet.FaultEvent{Kind: simnet.FaultReorder, Src: -1, Dst: -1, Seq: 4},
		simnet.FaultEvent{Kind: simnet.FaultCrash, Node: crashNode, Cycle: crashCycle},
	)
}

// chaosMultigridSolver builds a 4-processor, 3-level W-cycle solver whose
// coarse partitions are inherited from the fine one.
func chaosMultigridSolver(t *testing.T) *Solver {
	t.Helper()
	meshes, err := meshgen.Sequence(meshgen.DefaultChannel(10, 6, 4, 17), 3)
	if err != nil {
		t.Fatal(err)
	}
	_, part := channelAndPartition(t, 10, 6, 4, 4)
	s, err := NewMultigrid(meshes, [][]int32{part, nil, nil}, 4, euler.DefaultParams(0.675, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// chaosMultigridRows is the multigrid row of the two chaos tests: only the
// fine grid is checkpointed — the coarse levels are rebuilt from it every
// cycle — so a node crash before the first periodic checkpoint, between
// two, and on the last cycle must each replay to the fault-free history and
// solution bitwise, restriction and prolongation exchanges included.
func chaosMultigridRows(t *testing.T, concurrent bool) {
	const cycles, every = 9, 3
	ref, err := chaosMultigridSolver(t).Run(RunOptions{MaxCycles: cycles, Concurrent: concurrent})
	if err != nil {
		t.Fatal(err)
	}
	for _, crashCycle := range []int{1, 4, cycles - 1} {
		t.Run(fmt.Sprintf("multigrid/crash@%d", crashCycle), func(t *testing.T) {
			s := chaosMultigridSolver(t)
			plan := chaosPlan(crashCycle%s.NProc, crashCycle)
			s.Fabric.SetFaultPlan(plan)
			res, err := s.Run(RunOptions{MaxCycles: cycles, Concurrent: concurrent, CheckpointEvery: every})
			if err != nil {
				t.Fatalf("chaos run failed: %v", err)
			}
			if res.Recoveries < 1 || plan.Unfired() != 0 {
				t.Errorf("%d recoveries, %d faults never fired", res.Recoveries, plan.Unfired())
			}
			if len(res.History) != len(ref.History) {
				t.Fatalf("chaos run has %d history entries, fault-free %d", len(res.History), len(ref.History))
			}
			for i := range ref.History {
				if res.History[i] != ref.History[i] {
					t.Fatalf("history[%d] = %v under faults, want %v (bitwise)", i, res.History[i], ref.History[i])
				}
			}
			for i := range ref.FineSolution {
				if res.FineSolution[i] != ref.FineSolution[i] {
					t.Fatalf("solution vertex %d differs from fault-free run", i)
				}
			}
		})
	}
}

// TestChaosRecoversBitwise is the acceptance test of the fault-tolerance
// stack: under a seeded plan with drops, corruption, duplication, delay,
// reordering AND a node crash mid-run, the distributed solve must recover
// and produce a residual history and final solution bitwise identical to
// the fault-free run.
func TestChaosRecoversBitwise(t *testing.T) {
	const cycles = 10

	ref, err := chaosSolver(t).Run(RunOptions{MaxCycles: cycles})
	if err != nil {
		t.Fatal(err)
	}

	s := chaosSolver(t)
	plan := chaosPlan(1, 5)
	s.Fabric.SetFaultPlan(plan)
	var log bytes.Buffer
	res, err := s.Run(RunOptions{MaxCycles: cycles, CheckpointEvery: 3, Log: &log})
	if err != nil {
		t.Fatalf("chaos run failed: %v\nlog:\n%s", err, log.String())
	}

	if res.Recoveries < 1 {
		t.Errorf("crash never triggered a recovery (log:\n%s)", log.String())
	}
	if n := plan.Unfired(); n != 0 {
		t.Errorf("%d scheduled faults never fired", n)
	}
	st := plan.Stats()
	if st.Drops < 1 || st.Corruptions < 1 || st.Crashes < 1 {
		t.Errorf("fault mix incomplete: %+v", st)
	}
	if s.Fabric.Resends() == 0 {
		t.Error("no message healing took place")
	}

	if len(res.History) != len(ref.History) {
		t.Fatalf("chaos run has %d history entries, fault-free %d", len(res.History), len(ref.History))
	}
	for i := range ref.History {
		if res.History[i] != ref.History[i] {
			t.Fatalf("history[%d] = %v under faults, want %v (bitwise)", i, res.History[i], ref.History[i])
		}
	}
	if len(res.FineSolution) != len(ref.FineSolution) {
		t.Fatal("solution size mismatch")
	}
	for i := range ref.FineSolution {
		if res.FineSolution[i] != ref.FineSolution[i] {
			t.Fatalf("solution vertex %d differs from fault-free run", i)
		}
	}
	chaosMultigridRows(t, false)
}

// The same contract must hold in true MIMD mode, where every simulated
// processor heals its own exchanges concurrently.
func TestChaosRecoversBitwiseConcurrent(t *testing.T) {
	const cycles = 8

	ref, err := chaosSolver(t).Run(RunOptions{MaxCycles: cycles, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}

	s := chaosSolver(t)
	s.Fabric.SetFaultPlan(chaosPlan(2, 4))
	res, err := s.Run(RunOptions{MaxCycles: cycles, Concurrent: true, CheckpointEvery: 2})
	if err != nil {
		t.Fatalf("concurrent chaos run failed: %v", err)
	}
	if res.Recoveries < 1 {
		t.Error("crash never triggered a recovery")
	}
	for i := range ref.History {
		if res.History[i] != ref.History[i] {
			t.Fatalf("history[%d] = %v under faults, want %v", i, res.History[i], ref.History[i])
		}
	}
	for i := range ref.FineSolution {
		if res.FineSolution[i] != ref.FineSolution[i] {
			t.Fatalf("solution vertex %d differs from fault-free run", i)
		}
	}
	chaosMultigridRows(t, true)
}

// Crash recovery disabled: the node failure must surface as ErrNodeDown.
func TestCrashWithoutRecoveryFails(t *testing.T) {
	s := chaosSolver(t)
	s.Fabric.SetFaultPlan(simnet.NewFaultPlan(simnet.FaultEvent{Kind: simnet.FaultCrash, Node: 0, Cycle: 2}))
	_, err := s.Run(RunOptions{MaxCycles: 6, CheckpointEvery: 1, MaxRecoveries: -1})
	if !errors.Is(err, simnet.ErrNodeDown) {
		t.Fatalf("run returned %v, want ErrNodeDown", err)
	}
}

// Disk checkpoints: a fresh solver resumed from the saved file must replay
// to the exact state of an uninterrupted run.
func TestRunCheckpointResumeFromDisk(t *testing.T) {
	const cycles, every = 10, 3

	ref, err := chaosSolver(t).Run(RunOptions{MaxCycles: cycles})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "dm.ckpt")
	if _, err := chaosSolver(t).Run(RunOptions{
		MaxCycles: 2 * every, CheckpointEvery: every, CheckpointPath: path,
		Mach: 0.675,
	}); err != nil {
		t.Fatal(err)
	}
	ck, err := meshio.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Cycle != 2*every {
		t.Fatalf("disk checkpoint at cycle %d, want %d", ck.Cycle, 2*every)
	}

	res, err := chaosSolver(t).Run(RunOptions{MaxCycles: cycles, Resume: ck})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != cycles || len(res.History) != len(ref.History) {
		t.Fatalf("resumed run: %d cycles, %d history entries", res.Cycles, len(res.History))
	}
	for i := range ref.History {
		if res.History[i] != ref.History[i] {
			t.Fatalf("history[%d] = %v after resume, want %v (bitwise)", i, res.History[i], ref.History[i])
		}
	}
	for i := range ref.FineSolution {
		if res.FineSolution[i] != ref.FineSolution[i] {
			t.Fatalf("solution vertex %d differs after resume", i)
		}
	}
}

// The divergence watchdog halves the CFL and rewinds; when retries are
// exhausted the run fails with a diagnosable error rather than NaNs.
func TestDivergenceWatchdogBacksOffCFL(t *testing.T) {
	s := chaosSolver(t)
	cfl0 := s.P.CFL
	var log bytes.Buffer
	// A blow-up factor below any realistic residual ratio makes every
	// cycle-1 residual look like a divergence, exercising the rewind path.
	_, err := s.Run(RunOptions{
		MaxCycles: 5, CheckpointEvery: 1, MaxCFLBackoffs: 2,
		BlowupFactor: 1e-6, Log: &log,
	})
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("run returned %v, want divergence error", err)
	}
	if !strings.Contains(log.String(), "CFL") {
		t.Errorf("no CFL backoff logged:\n%s", log.String())
	}
	if want := cfl0 * 0.25; s.P.CFL != want {
		t.Errorf("CFL after two backoffs = %g, want %g", s.P.CFL, want)
	}
}
