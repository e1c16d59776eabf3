package solver

import (
	"reflect"
	"strings"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/smsolver"
	"eul3d/internal/trace"
)

// TestConfigHonouredOrRejected is the admissibility test for the engine
// choice itself: every Config field and the mesh count, changed from each
// kind's baseline, must either make Open refuse the engine or change what
// it computes in three cycles. A field the engine silently ignored would
// leave the history unchanged, the one outcome this test fails on. The
// exception is by contract: a pooled engine's worker count leaves the
// history bitwise unchanged, so there the test checks that the pool the
// engine runs changed size instead, as one trace track per worker. The
// field list is walked by reflection, so a field added to Config fails here
// until it is given a change.
func TestConfigHonouredOrRejected(t *testing.T) {
	const cycles = 3
	seq, err := meshgen.Sequence(meshgen.DefaultChannel(10, 6, 4, 17), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer func(old int) { smsolver.SerialCutoffEdges = old }(smsolver.SerialCutoffEdges)
	smsolver.SerialCutoffEdges = 0 // the pooled kinds must run their pools
	p := euler.DefaultParams(0.675, 0)

	// run returns Open's error, or the history and the number of trace
	// tracks the engine registered.
	run := func(ms []*mesh.Mesh, c Config) (hist []float64, tracks int, err error) {
		st, err := Open(ms, p, c)
		if err != nil {
			return nil, 0, err
		}
		defer st.Close()
		tr := trace.New(1 << 10)
		st.SetTrace(tr)
		res, err := st.Run(Options{MaxCycles: cycles})
		if err != nil {
			t.Fatal(err)
		}
		return res.History, len(tr.Tracks()), nil
	}

	// Each change applies to a baseline's meshes and Config; the key's
	// prefix names the field it changes.
	changes := map[string]func(ms *[]*mesh.Mesh, c *Config){
		"Kind/unknown": func(_ *[]*mesh.Mesh, c *Config) { c.Kind = "warp" },
		"Workers/+1":   func(_ *[]*mesh.Mesh, c *Config) { c.Workers++ },
		"Workers/-1":   func(_ *[]*mesh.Mesh, c *Config) { c.Workers = -1 },
		"Gamma/+1":     func(_ *[]*mesh.Mesh, c *Config) { c.Gamma++ },
		"Gamma/-1":     func(_ *[]*mesh.Mesh, c *Config) { c.Gamma-- },
		"meshes/+1":    func(ms *[]*mesh.Mesh, _ *Config) { *ms = seq[:len(*ms)+1] },
		"meshes/-1":    func(ms *[]*mesh.Mesh, _ *Config) { *ms = (*ms)[:len(*ms)-1] },
	}
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		field, found := ct.Field(i).Name, false
		for name := range changes {
			found = found || strings.HasPrefix(name, field+"/")
		}
		if !found {
			t.Errorf("solver.Config.%s has no change in this test: classify it", field)
		}
	}

	for _, base := range []struct {
		c      Config
		levels int
	}{
		{Config{}, 1},
		{Config{Kind: KindSM, Workers: 2}, 1},
		{Config{Kind: KindMG, Gamma: 1}, 3},
		{Config{Kind: KindSMMG, Workers: 2, Gamma: 1}, 3},
	} {
		kind := base.c.Kind
		if kind == "" {
			kind = KindSingle
		}
		ref, refTracks, err := run(seq[:base.levels], base.c)
		if err != nil {
			t.Fatalf("%s: baseline: %v", kind, err)
		}
		for name, change := range changes {
			ms, c := seq[:base.levels], base.c
			change(&ms, &c)
			got, tracks, err := run(ms, c)
			switch {
			case err != nil:
				t.Logf("%s rejects %s: %v", kind, name, err)
			case len(got) != cycles:
				t.Fatalf("%s with %s: history %v does not compare", kind, name, got)
			case !reflect.DeepEqual(got, ref):
			case name == "Workers/+1" && tracks != refTracks:
				// A pooled history is the same at every worker count.
			default:
				t.Errorf("%s ignores %s: history %v unchanged, %d trace tracks", kind, name, got, tracks)
			}
		}
	}
}
