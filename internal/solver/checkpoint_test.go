package solver

import (
	"path/filepath"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/meshgen"
	"eul3d/internal/meshio"
)

// TestCheckpointResumeBitwise is the determinism contract for restart: run N
// cycles straight through, then run the same problem with a mid-run
// checkpoint, resume a fresh solver from the file, and demand bitwise
// identical residual history and solution.
func TestCheckpointResumeBitwise(t *testing.T) {
	const total, every = 8, 3
	spec := meshgen.DefaultChannel(8, 5, 4, 9)
	build := func() *Steady {
		m, err := meshgen.Channel(spec)
		if err != nil {
			t.Fatal(err)
		}
		return NewSingleGrid(m, euler.DefaultParams(0.6, 1))
	}

	// Uninterrupted reference run.
	ref, err := build().Run(Options{MaxCycles: total})
	if err != nil {
		t.Fatal(err)
	}

	// Checkpointed run, stopped partway.
	path := filepath.Join(t.TempDir(), "run.ckpt")
	first, err := build().Run(Options{
		MaxCycles: 2 * every, CheckpointEvery: every, CheckpointPath: path,
		Mach: 0.6, AlphaDeg: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cycles != 2*every {
		t.Fatalf("first leg ran %d cycles", first.Cycles)
	}

	ck, err := meshio.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Cycle != 2*every || ck.Mach != 0.6 || ck.AlphaDeg != 1 {
		t.Fatalf("checkpoint = cycle %d mach %g alpha %g", ck.Cycle, ck.Mach, ck.AlphaDeg)
	}

	// Fresh solver resumed from the file.
	st := build()
	if err := st.Restore(ck); err != nil {
		t.Fatal(err)
	}
	resumed, err := st.Run(Options{MaxCycles: total})
	if err != nil {
		t.Fatal(err)
	}

	if resumed.Cycles != ref.Cycles || len(resumed.History) != len(ref.History) {
		t.Fatalf("resumed %d cycles / %d history, reference %d / %d",
			resumed.Cycles, len(resumed.History), ref.Cycles, len(ref.History))
	}
	for i := range ref.History {
		if resumed.History[i] != ref.History[i] {
			t.Fatalf("history[%d] = %v after resume, want %v (bitwise)", i, resumed.History[i], ref.History[i])
		}
	}
	for i := range ref.FineSolution {
		if resumed.FineSolution[i] != ref.FineSolution[i] {
			t.Fatalf("solution vertex %d differs after resume", i)
		}
	}
	if resumed.InitialNorm != ref.InitialNorm || resumed.FinalNorm != ref.FinalNorm {
		t.Errorf("norms differ: %v/%v vs %v/%v",
			resumed.InitialNorm, resumed.FinalNorm, ref.InitialNorm, ref.FinalNorm)
	}
}

// Multigrid resume: coarse levels are rebuilt from the restored fine grid
// every cycle, so the fine-grid snapshot is sufficient state.
func TestCheckpointResumeMultigridBitwise(t *testing.T) {
	const total, every = 6, 2
	build := func() *Steady {
		seq, err := meshgen.Sequence(meshgen.DefaultChannel(12, 6, 4, 17), 2)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Open(seq, euler.DefaultParams(0.5, 0.5), Config{Kind: KindMG, Gamma: 1})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	ref, err := build().Run(Options{MaxCycles: total})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "mg.ckpt")
	if _, err := build().Run(Options{
		MaxCycles: every, CheckpointEvery: every, CheckpointPath: path,
	}); err != nil {
		t.Fatal(err)
	}
	ck, err := meshio.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	st := build()
	if err := st.Restore(ck); err != nil {
		t.Fatal(err)
	}
	resumed, err := st.Run(Options{MaxCycles: total})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.History {
		if resumed.History[i] != ref.History[i] {
			t.Fatalf("mg history[%d] = %v after resume, want %v", i, resumed.History[i], ref.History[i])
		}
	}
	for i := range ref.FineSolution {
		if resumed.FineSolution[i] != ref.FineSolution[i] {
			t.Fatalf("mg solution vertex %d differs after resume", i)
		}
	}
}

func TestRestoreRejectsBadCheckpoint(t *testing.T) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(6, 4, 3, 9))
	if err != nil {
		t.Fatal(err)
	}
	st := NewSingleGrid(m, euler.DefaultParams(0.5, 0))
	if err := st.Restore(&meshio.Checkpoint{Cycle: 2, History: []float64{1}}); err == nil {
		t.Error("accepted history/cycle mismatch")
	}
	if err := st.Restore(&meshio.Checkpoint{Cycle: 0, Sol: make([]euler.State, 3)}); err == nil {
		t.Error("accepted wrong-size solution")
	}
}
