package solver

import (
	"bytes"
	"strings"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/meshgen"
)

func TestSingleGridRunConverges(t *testing.T) {
	spec := meshgen.DefaultChannel(12, 6, 4, 3)
	spec.BumpHeight = 0
	m, err := meshgen.Channel(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := NewSingleGrid(m, euler.DefaultParams(0.5, 0))
	var log bytes.Buffer
	res, err := st.Run(Options{MaxCycles: 5, LogEvery: 2, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 5 || len(res.History) != 5 {
		t.Errorf("cycles %d history %d", res.Cycles, len(res.History))
	}
	if res.FinalNorm > 1e-11 {
		t.Errorf("freestream run residual %g", res.FinalNorm)
	}
	if !strings.Contains(log.String(), "cycle") {
		t.Error("no progress log emitted")
	}
	if len(res.FineSolution) != m.NV() {
		t.Error("missing fine solution")
	}
}

func TestMultigridRunToleranceStops(t *testing.T) {
	seq, err := meshgen.Sequence(meshgen.DefaultChannel(16, 8, 6, 17), 3)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(seq, euler.DefaultParams(0.3, 0), Config{Kind: KindMG, Gamma: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run(Options{MaxCycles: 400, Tolerance: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d cycles (final %g)", res.Cycles, res.FinalNorm)
	}
	if res.Cycles >= 400 {
		t.Error("tolerance did not stop the run early")
	}
	if res.Ordersof10 < 3 {
		t.Errorf("orders reduced = %v", res.Ordersof10)
	}
	if st.MG == nil {
		t.Error("MG handle not exposed")
	}
}

func TestRunValidation(t *testing.T) {
	spec := meshgen.DefaultChannel(4, 3, 3, 3)
	m, err := meshgen.Channel(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := NewSingleGrid(m, euler.DefaultParams(0.5, 0))
	if _, err := st.Run(Options{MaxCycles: 0}); err == nil {
		t.Error("accepted MaxCycles=0")
	}
}

func TestSetInitialWarmStart(t *testing.T) {
	spec := meshgen.DefaultChannel(10, 6, 4, 3)
	m, err := meshgen.Channel(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := euler.DefaultParams(0.5, 0)

	cold := NewSingleGrid(m, p)
	res1, err := cold.Run(Options{MaxCycles: 30})
	if err != nil {
		t.Fatal(err)
	}

	warm := NewSingleGrid(m, p)
	if err := warm.SetInitial(res1.FineSolution); err != nil {
		t.Fatal(err)
	}
	res2, err := warm.Run(Options{MaxCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The warm start must resume where the cold run left off, not at the
	// impulsive-start residual.
	if res2.InitialNorm > 2*res1.FinalNorm {
		t.Errorf("warm start residual %g vs cold final %g", res2.InitialNorm, res1.FinalNorm)
	}

	if err := warm.SetInitial(res1.FineSolution[:3]); err == nil {
		t.Error("accepted short initial solution")
	}
}
