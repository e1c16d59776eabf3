package serve

import (
	"runtime"
	"testing"
	"weak"

	"eul3d/internal/euler"
)

// TestSettledJobDoesNotPinSolution: the registry keeps every job for good,
// so a settled job must not keep its run's solution reachable — that array
// is the cached engine's live state, which later jobs overwrite. Once the
// job has settled and its engine is closed, a GC frees the solution, and the
// job's view still reports the run's convergence summary.
func TestSettledJobDoesNotPinSolution(t *testing.T) {
	s := NewScheduler(Config{Runners: 1})
	defer s.Stop()
	j, err := s.Submit(chanSpec(5, 3, 2, 1, KindSingle, 0, 5))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	before := j.View()
	if before.State != StateCompleted || before.Orders == 0 {
		t.Fatalf("job ended %s with orders %v, want a completed run", before.State, before.Orders)
	}

	sol := func() weak.Pointer[euler.State] {
		c := s.Cache()
		c.mu.Lock()
		defer c.mu.Unlock()
		if len(c.entries) != 1 {
			t.Fatalf("%d cached engines, want 1", len(c.entries))
		}
		for _, e := range c.entries {
			return weak.Make(&e.st.Solution()[0])
		}
		return weak.Pointer[euler.State]{}
	}()
	s.Cache().Close()
	for i := 0; i < 3 && sol.Value() != nil; i++ {
		runtime.GC()
	}
	if sol.Value() != nil {
		t.Fatal("the settled job still holds its run's solution after the engine closed")
	}
	if after := j.View(); after.Converged != before.Converged || after.Orders != before.Orders {
		t.Errorf("view changed after the engine closed: converged %v orders %v, was %v %v",
			after.Converged, after.Orders, before.Converged, before.Orders)
	}
}
