package solver

import (
	"context"
	"sync"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
)

func smallMesh(t *testing.T) *meshgen.ChannelSpec {
	t.Helper()
	spec := meshgen.DefaultChannel(8, 4, 3, 5)
	return &spec
}

// Cancelling the context mid-run stops the solve and returns the partial
// history with Cancelled set and no error.
func TestRunContextCancelMidFlight(t *testing.T) {
	m, err := meshgen.Channel(*smallMesh(t))
	if err != nil {
		t.Fatal(err)
	}
	st := NewSingleGrid(m, euler.DefaultParams(0.5, 0))
	ctx, cancel := context.WithCancel(context.Background())
	const stopAt = 7
	res, err := st.Run(Options{
		MaxCycles: 1000,
		Context:   ctx,
		Progress: func(cycle int, norm float64) {
			if cycle == stopAt {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Fatal("result not marked Cancelled")
	}
	// The cancel fires in the callback after cycle stopAt completes, so
	// exactly stopAt+1 cycles ran.
	if res.Cycles != stopAt+1 || len(res.History) != stopAt+1 {
		t.Errorf("cycles=%d len(history)=%d, want %d", res.Cycles, len(res.History), stopAt+1)
	}
}

// An already-cancelled context runs zero cycles.
func TestRunContextCancelledUpFront(t *testing.T) {
	m, err := meshgen.Channel(*smallMesh(t))
	if err != nil {
		t.Fatal(err)
	}
	st := NewSingleGrid(m, euler.DefaultParams(0.5, 0))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := st.Run(Options{MaxCycles: 10, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled || res.Cycles != 0 || len(res.History) != 0 {
		t.Errorf("cancelled=%v cycles=%d history=%d", res.Cancelled, res.Cycles, len(res.History))
	}
}

// Progress fires once per cycle with the same norms Run records, and a nil
// Context / nil Progress changes nothing (no Cancelled flag).
func TestRunProgressCallback(t *testing.T) {
	m, err := meshgen.Channel(*smallMesh(t))
	if err != nil {
		t.Fatal(err)
	}
	st := NewSingleGrid(m, euler.DefaultParams(0.5, 0))
	var cycles []int
	var norms []float64
	res, err := st.Run(Options{
		MaxCycles: 6,
		Progress:  func(c int, n float64) { cycles = append(cycles, c); norms = append(norms, n) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled {
		t.Error("run without context marked Cancelled")
	}
	if len(cycles) != 6 {
		t.Fatalf("progress fired %d times, want 6", len(cycles))
	}
	for i, c := range cycles {
		if c != i {
			t.Errorf("progress cycle[%d] = %d", i, c)
		}
		if norms[i] != res.History[i] {
			t.Errorf("progress norm[%d] = %g, history %g", i, norms[i], res.History[i])
		}
	}
}

// Close must be idempotent, safe under concurrent callers, and safe after
// a Run that returned an error (double-Close previously trusted callers).
func TestCloseIdempotentAfterFailedRun(t *testing.T) {
	m, err := meshgen.Channel(*smallMesh(t))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open([]*mesh.Mesh{m}, euler.DefaultParams(0.5, 0), Config{Kind: KindSM, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(Options{MaxCycles: 0}); err == nil {
		t.Fatal("Run with MaxCycles=0 should fail")
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.Close()
		}()
	}
	wg.Wait()
	st.Close() // and once more after the pool is gone
}

// Reset returns a reused engine to the freestream state and clears any
// restored checkpoint, so back-to-back runs are bitwise identical.
func TestResetReproducesFreshRun(t *testing.T) {
	m, err := meshgen.Channel(*smallMesh(t))
	if err != nil {
		t.Fatal(err)
	}
	p := euler.DefaultParams(0.5, 1.0)
	st := NewSingleGrid(m, p)
	first, err := st.Run(Options{MaxCycles: 8})
	if err != nil {
		t.Fatal(err)
	}
	firstHist := append([]float64(nil), first.History...)
	st.Reset()
	second, err := st.Run(Options{MaxCycles: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(second.History) != len(firstHist) {
		t.Fatalf("history lengths differ: %d vs %d", len(second.History), len(firstHist))
	}
	for i := range firstHist {
		if second.History[i] != firstHist[i] {
			t.Fatalf("cycle %d: %g after Reset, %g fresh", i, second.History[i], firstHist[i])
		}
	}
}
