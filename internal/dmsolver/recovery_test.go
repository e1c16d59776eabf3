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
	"eul3d/internal/runloop"
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

// chaosMultigridRows is the multigrid row of the chaos test: only the
// fine grid is checkpointed — the coarse levels are rebuilt from it every
// cycle — so a node crash before the first periodic checkpoint, between
// two, and on the last cycle must each replay to the fault-free history and
// solution bitwise, restriction and prolongation exchanges included.
func chaosMultigridRows(t *testing.T) {
	const cycles, every = 9, 3
	ref, err := chaosMultigridSolver(t).Run(runloop.Options{MaxCycles: cycles})
	if err != nil {
		t.Fatal(err)
	}
	for _, crashCycle := range []int{1, 4, cycles - 1} {
		t.Run(fmt.Sprintf("multigrid/crash@%d", crashCycle), func(t *testing.T) {
			s := chaosMultigridSolver(t)
			plan := chaosPlan(crashCycle%s.NProc, crashCycle)
			s.Fabric.SetFaultPlan(plan)
			res, err := s.Run(runloop.Options{MaxCycles: cycles, CheckpointEvery: every})
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

	ref, err := chaosSolver(t).Run(runloop.Options{MaxCycles: cycles})
	if err != nil {
		t.Fatal(err)
	}

	s := chaosSolver(t)
	plan := chaosPlan(1, 5)
	s.Fabric.SetFaultPlan(plan)
	var log bytes.Buffer
	res, err := s.Run(runloop.Options{MaxCycles: cycles, CheckpointEvery: 3, Log: &log})
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
	chaosMultigridRows(t)
}

// A crash past the recovery budget is not recovered: the fourth of four
// crashes, against a budget of three, surfaces as ErrNodeDown.
func TestCrashWithoutRecoveryFails(t *testing.T) {
	s := chaosSolver(t)
	var crashes []simnet.FaultEvent
	for c := 1; c <= maxRecoveries+1; c++ {
		crashes = append(crashes, simnet.FaultEvent{Kind: simnet.FaultCrash, Node: c % s.NProc, Cycle: c})
	}
	plan := simnet.NewFaultPlan(crashes...)
	s.Fabric.SetFaultPlan(plan)
	var log bytes.Buffer
	_, err := s.Run(runloop.Options{MaxCycles: 8, CheckpointEvery: 1, Log: &log})
	if !errors.Is(err, simnet.ErrNodeDown) {
		t.Fatalf("run returned %v, want ErrNodeDown", err)
	}
	if n := strings.Count(log.String(), "restoring checkpoint"); n != maxRecoveries || plan.Unfired() != 0 {
		t.Fatalf("%d recoveries, %d crashes never fired; want %d and 0\nlog:\n%s", n, plan.Unfired(), maxRecoveries, log.String())
	}
}

// Disk checkpoints: a fresh solver resumed from the saved file must replay
// to the exact state of an uninterrupted run.
func TestRunCheckpointResumeFromDisk(t *testing.T) {
	const cycles, every = 10, 3

	ref, err := chaosSolver(t).Run(runloop.Options{MaxCycles: cycles})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "dm.ckpt")
	if _, err := chaosSolver(t).Run(runloop.Options{
		MaxCycles: 2 * every, CheckpointEvery: every, Meta: runloop.Meta{Mach: 0.675},
		OnCheckpoint: func(ck *meshio.Checkpoint) error { return meshio.SaveCheckpoint(path, ck) },
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

	s := chaosSolver(t)
	if err := s.Restore(ck); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(runloop.Options{MaxCycles: cycles})
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
// exhausted the run fails with a diagnosable error rather than NaNs. The
// run genuinely diverges: a CFL far past the scheme's stability limit, with
// the positivity floors that would otherwise hold the state off, still
// blows up at a half and a quarter of it.
func TestDivergenceWatchdogBacksOffCFL(t *testing.T) {
	m, part := channelAndPartition(t, 10, 6, 4, 3)
	p := euler.DefaultParams(0.675, 0)
	p.CFL = 1000
	p.MinDensity, p.MinPressure = 0, 0
	s, err := NewSingle(m, part, 3, p)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	res, err := s.Run(runloop.Options{MaxCycles: 8, CheckpointEvery: 1, Log: &log})
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("run returned %v, %v, want divergence error\nlog:\n%s", res, err, log.String())
	}
	if n := strings.Count(log.String(), "diverging; CFL"); n != maxCFLBackoffs {
		t.Errorf("%d CFL backoffs logged, want %d:\n%s", n, maxCFLBackoffs, log.String())
	}
	if want := p.CFL * 0.25; s.P.CFL != want {
		t.Errorf("CFL after two backoffs = %g, want %g", s.P.CFL, want)
	}
}
