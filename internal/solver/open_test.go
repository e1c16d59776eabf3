package solver

import (
	"reflect"
	"strings"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/trace"
)

// TestConfigHonouredOrRejected is the admissibility test for the engine
// choice itself: every Config field and the mesh count, changed from each
// grid shape's baseline at one and at two workers, must either make Open
// refuse the engine or change what it computes in three cycles. A field
// the engine silently ignored would leave the history unchanged, the one
// outcome this test fails on. Two exceptions are by contract. A worker
// count leaves the history bitwise unchanged, so there the test checks
// that the pool the engine runs changed size instead, as one trace track
// per worker. A cycle index on one mesh is a one-level multigrid, whose
// cycle is exactly a single-grid step, so there it checks that Open built
// the multigrid engine. The field list is walked by reflection, so a field
// added to Config fails here until it is given a change.
func TestConfigHonouredOrRejected(t *testing.T) {
	const cycles = 3
	seq, err := meshgen.Sequence(meshgen.DefaultChannel(10, 6, 4, 17), 4)
	if err != nil {
		t.Fatal(err)
	}
	p := euler.DefaultParams(0.675, 0)

	// outcome is what a run shows of the engine: its history, the number
	// of trace tracks it registered and whether it is the multigrid.
	type outcome struct {
		hist   []float64
		tracks int
		multi  bool
	}
	run := func(ms []*mesh.Mesh, c Config) (outcome, error) {
		st, err := Open(ms, p, c)
		if err != nil {
			return outcome{}, err
		}
		defer st.Close()
		tr := trace.New(1 << 10)
		st.SetTrace(tr)
		res, err := st.Run(Options{MaxCycles: cycles})
		if err != nil {
			t.Fatal(err)
		}
		return outcome{res.History, len(tr.Tracks()), st.MG != nil}, nil
	}

	// Each change applies to a baseline's meshes and Config; the key's
	// prefix names the field it changes.
	changes := map[string]func(ms *[]*mesh.Mesh, c *Config){
		"Workers/+1": func(_ *[]*mesh.Mesh, c *Config) { c.Workers = max(c.Workers, 1) + 1 },
		"Workers/-1": func(_ *[]*mesh.Mesh, c *Config) { c.Workers = -1 },
		"Gamma/+1":   func(_ *[]*mesh.Mesh, c *Config) { c.Gamma++ },
		"Gamma/-1":   func(_ *[]*mesh.Mesh, c *Config) { c.Gamma-- },
		"meshes/+1":  func(ms *[]*mesh.Mesh, _ *Config) { *ms = seq[:len(*ms)+1] },
		"meshes/-1":  func(ms *[]*mesh.Mesh, _ *Config) { *ms = (*ms)[:len(*ms)-1] },
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
		{Config{Workers: 2}, 1},
		{Config{Gamma: 1}, 3},
		{Config{Workers: 2, Gamma: 1}, 3},
	} {
		ref, err := run(seq[:base.levels], base.c)
		if err != nil {
			t.Fatalf("%+v: baseline: %v", base.c, err)
		}
		for name, change := range changes {
			ms, c := seq[:base.levels], base.c
			change(&ms, &c)
			got, err := run(ms, c)
			switch {
			case err != nil:
				t.Logf("%+v rejects %s: %v", base.c, name, err)
			case len(got.hist) != cycles:
				t.Fatalf("%+v with %s: history %v does not compare", base.c, name, got.hist)
			case !reflect.DeepEqual(got.hist, ref.hist):
			case name == "Workers/+1" && got.tracks != ref.tracks:
				// The history is the same at every worker count.
			case name == "Gamma/+1" && len(ms) == 1 && got.multi && !ref.multi:
				// A one-level multigrid cycle is a single-grid step.
			default:
				t.Errorf("%+v ignores %s: history %v unchanged, %d trace tracks", base.c, name, got.hist, got.tracks)
			}
		}
	}
}
