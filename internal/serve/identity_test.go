package serve

import "testing"

// TestNameAndWorkersLeaveTheAnswer is the evidence that the engine name and
// the worker count are speed settings, not part of a job's identity.
// Through one scheduler, a single-grid channel spec and a 3-level W-cycle
// spec are each run under all four engine names at 1, 2 and 3 workers:
// every run of a spec must give one ResultHash. Then the twelve variants
// of each spec are submitted together while a blocker holds the only
// runner: they must coalesce into one run per spec, with that result.
func TestNameAndWorkersLeaveTheAnswer(t *testing.T) {
	s := NewScheduler(Config{QueueCap: 4, Runners: 1, WorkerBudget: 4, CacheCap: 8})
	defer s.Stop()

	specs := map[string]JobSpec{
		"single grid": {Mesh: MeshSpec{NX: 6, NY: 3, NZ: 2, Seed: 3}, Mach: 0.5, Levels: 1, Cycles: 10},
		"W-cycle":     {Mesh: MeshSpec{NX: 10, NY: 6, NZ: 4, Seed: 17}, Mach: 0.5, Levels: 3, Cycle: "w", Cycles: 4},
	}
	variants := func(spec JobSpec) []JobSpec {
		var out []JobSpec
		for _, name := range []string{KindSingle, KindSM, KindMG, KindSMMG} {
			for w := 1; w <= 3; w++ {
				v := spec
				v.Engine, v.Workers = name, w
				out = append(out, v)
			}
		}
		return out
	}

	want := map[string]string{}
	for name, spec := range specs {
		for _, v := range variants(spec) {
			got := runSpec(t, s, v).ResultHash
			if w, ok := want[name]; !ok {
				want[name] = got
			} else if got != w {
				t.Errorf("%s as %s at %d workers: result %s, want %s", name, v.Engine, v.Workers, got, w)
			}
		}
	}
	if want["single grid"] == want["W-cycle"] {
		t.Fatal("the single grid and the W-cycle share a result")
	}

	runs := s.Metrics().Completed.Load()
	blocker := submitOne(t, s, chanSpec(6, 3, 2, 7, KindSM, 2, 200000))
	waitState(t, blocker, StateRunning)
	parties := map[string][]*Job{}
	for name, spec := range specs {
		for _, v := range variants(spec) {
			j := submitOne(t, s, v)
			if ps := parties[name]; len(ps) > 0 {
				if jv := j.View(); jv.State != StateCoalesced || jv.CoalescedWith != ps[0].ID {
					t.Errorf("%s as %s at %d workers: state %s with %q, want coalesced with %s",
						name, v.Engine, v.Workers, jv.State, jv.CoalescedWith, ps[0].ID)
				}
			}
			parties[name] = append(parties[name], j)
		}
	}
	if _, err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	for name, ps := range parties {
		for _, j := range ps {
			waitDone(t, j)
			if v := j.View(); v.State != StateCompleted || v.ResultHash != want[name] {
				t.Errorf("%s party %s ended %s with %s, want completed with %s", name, j.ID, v.State, v.ResultHash, want[name])
			}
		}
	}
	if got := s.Metrics().Completed.Load() - runs; got != int64(len(specs)) {
		t.Errorf("%d runs for %d specs, want one each", got, len(specs))
	}
}
