package verify

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"eul3d/internal/dmsolver"
	"eul3d/internal/euler"
	"eul3d/internal/graph"
	"eul3d/internal/meshgen"
	"eul3d/internal/partition"
	"eul3d/internal/solver"
)

// TestEveryParamHonouredOrRejected pins admissibility: every field of
// euler.Params, perturbed, must change what every engine computes — or make
// the engine refuse to be built. An engine that silently ignores a field it
// does not implement returns the unperturbed history, which is the one
// outcome this test fails on. The field list is walked by reflection, so a
// field added to Params fails here until it is given a perturbation.
func TestEveryParamHonouredOrRejected(t *testing.T) {
	const cycles = 3
	meshes, err := meshgen.Sequence(meshgen.DefaultChannel(10, 6, 4, 17), 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(meshes[0].NV(), meshes[0].Edges)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Partition(g, meshes[0].X, 3, partition.Spectral, 1)
	if err != nil {
		t.Fatal(err)
	}

	// The baseline keeps the positivity floors just under the freestream,
	// so the guard is live in the bump's expansion within three cycles:
	// with it idle, ConvexLimit — which only chooses what the guard does —
	// could not show.
	base := euler.DefaultParams(0.675, 0)
	rhoInf, pInf := base.Freestream[0], base.Gas.Pressure(base.Freestream)
	base.MinDensity, base.MinPressure = 0.999*rhoInf, 0.999*pInf

	perturb := map[string]func(p *euler.Params){
		"Gas":        func(p *euler.Params) { p.Gas.Gamma = 1.3 },
		"CFL":        func(p *euler.Params) { p.CFL /= 2 },
		"K2":         func(p *euler.Params) { p.K2 *= 2 },
		"K4":         func(p *euler.Params) { p.K4 *= 2 },
		"EpsSmooth":  func(p *euler.Params) { p.EpsSmooth /= 2 },
		"NSmooth":    func(p *euler.Params) { p.NSmooth++ },
		"Stages":     func(p *euler.Params) { p.Stages = []float64{0.25, 0.2, 0.375, 0.5, 1} },
		"Freestream": func(p *euler.Params) { p.Freestream = p.Gas.Freestream(0.7, 0) },
		// A floor above the freestream has every stage update reverted.
		"MinDensity":  func(p *euler.Params) { p.MinDensity = 2 * rhoInf },
		"MinPressure": func(p *euler.Params) { p.MinPressure = 2 * pInf },
		"ConvexLimit": func(p *euler.Params) { p.ConvexLimit = !p.ConvexLimit },
		"GlobalDt":    func(p *euler.Params) { p.GlobalDt = 1e-3 },
	}

	// Each engine returns its construction error, or the history of a run
	// from the freestream through the driver the CLI and the daemon use:
	// both steady grid shapes on one and on two workers through solver.Open,
	// the distributed engine in both orchestrations.
	type engine struct {
		name string
		run  func(p euler.Params) ([]float64, error)
	}
	var engines []engine
	for _, c := range []solver.Config{
		{},
		{Workers: 2},
		{Gamma: 2},
		{Workers: 2, Gamma: 2},
	} {
		engines = append(engines, engine{fmt.Sprintf("%+v", c), func(p euler.Params) ([]float64, error) {
			ms := meshes
			if c.Gamma == 0 {
				ms = meshes[:1]
			}
			st, err := solver.Open(ms, p, c)
			if err != nil {
				return nil, err
			}
			defer st.Close()
			res, err := st.Run(solver.Options{MaxCycles: cycles})
			if err != nil {
				t.Fatal(err)
			}
			return res.History, nil
		}})
	}
	engines = append(engines, engine{"distributed", func(p euler.Params) ([]float64, error) {
		dm, err := dmsolver.NewMultigrid(meshes, [][]int32{part, nil}, 3, p, 2)
		if err != nil {
			return nil, err
		}
		res, err := dm.Run(dmsolver.RunOptions{MaxCycles: cycles})
		if err != nil {
			t.Fatal(err)
		}
		return res.History, nil
	}})

	for _, e := range engines {
		ref, err := e.run(base)
		if err != nil {
			t.Fatalf("%s: baseline: %v", e.name, err)
		}
		pt := reflect.TypeOf(euler.Params{})
		for i := 0; i < pt.NumField(); i++ {
			field := pt.Field(i).Name
			change := perturb[field]
			if change == nil {
				t.Errorf("euler.Params.%s has no perturbation in this test: classify it", field)
				continue
			}
			p := base
			change(&p)
			got, err := e.run(p)
			if err != nil {
				t.Logf("%s rejects a changed %s: %v", e.name, field, err)
				continue
			}
			if len(got) != cycles || math.IsNaN(got[cycles-1]) {
				t.Fatalf("%s with a changed %s: history %v does not compare", e.name, field, got)
			}
			if reflect.DeepEqual(got, ref) {
				t.Errorf("%s ignores Params.%s: history %v unchanged", e.name, field, got)
			}
		}
	}
}
