package solver

import (
	"fmt"
	"math"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/flops"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/multigrid"
	"eul3d/internal/refine"
	"eul3d/internal/reorder"
	"eul3d/internal/scenario"
)

// TestSingleGridIsDiscBitwise pins NewSingleGrid's contract: the sequential
// engine runs the pooled engine's kernels at one worker in the mesh's own
// edge and face order, so its residual history and solution equal
// euler.Disc.Step's bit for bit on any mesh — the generated channel, one
// with more vertices than a residual-norm block (euler.NormBlock), so the
// norm combines several blocks, the channel with its vertices and elements
// scrambled, the Sod preset's
// time-accurate parameters (global dt, convex limiter, positivity floors,
// no smoothing), and after a Rebuild onto a selectively refined mesh. A
// cycle allocates nothing, and the flop ledger charges exactly flops.Step
// per cycle, as the single-phase ledger it replaced did.
func TestSingleGridIsDiscBitwise(t *testing.T) {
	base, err := meshgen.Channel(meshgen.DefaultChannel(10, 6, 4, 17))
	if err != nil {
		t.Fatal(err)
	}
	large, err := meshgen.Channel(meshgen.DefaultChannel(24, 16, 12, 17))
	if err != nil {
		t.Fatal(err)
	}
	if large.NV() <= euler.NormBlock {
		t.Fatalf("the large channel has %d vertices, not more than a norm block (%d)", large.NV(), euler.NormBlock)
	}
	scrambled, err := reorder.Scramble(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	sod, err := scenario.Sod.Meshes(1)
	if err != nil {
		t.Fatal(err)
	}
	marked := make([]bool, base.NT())
	for i := range marked {
		marked[i] = i%7 == 0
	}
	refined, err := refine.Selective(base, marked)
	if err != nil {
		t.Fatal(err)
	}
	channel := euler.DefaultParams(0.675, 0)

	stepFlops := func(m *mesh.Mesh, p euler.Params) int64 {
		return flops.Step(int64(m.NV()), int64(m.NE()), int64(len(m.BFaces)), len(p.Stages), euler.DissipStages, p.NSmooth)
	}
	for _, tc := range []struct {
		name    string
		m       *mesh.Mesh
		p       euler.Params
		init    []euler.State // nil: freestream
		rebuild *mesh.Mesh    // run on m first, then Rebuild onto this
	}{
		{name: "channel", m: base, p: channel},
		{name: "blocks", m: large, p: channel},
		{name: "scrambled", m: scrambled, p: channel},
		{name: "sod", m: sod[0], p: scenario.Sod.Params(), init: scenario.Sod.InitialState(sod[0])},
		{name: "rebuilt", m: base, p: channel, rebuild: refined.Mesh},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const cycles = 8
			st := NewSingleGrid(tc.m, tc.p)
			defer st.Close()
			var wantFlops int64
			on := tc.m
			if tc.rebuild != nil {
				if _, err := st.Run(Options{MaxCycles: 3}); err != nil {
					t.Fatal(err)
				}
				wantFlops += 3 * stepFlops(on, tc.p)
				on = tc.rebuild
				w := make([]euler.State, on.NV())
				euler.NewDisc(on, tc.p).InitUniform(w)
				if err := st.Rebuild(on, tc.p, w); err != nil {
					t.Fatal(err)
				}
			}

			d := euler.NewDisc(on, tc.p)
			ws := euler.NewStepWorkspace(on.NV())
			w := make([]euler.State, on.NV())
			if tc.init != nil {
				copy(w, tc.init)
				if err := st.SetInitial(tc.init); err != nil {
					t.Fatal(err)
				}
			} else {
				d.InitUniform(w)
				st.Reset()
			}
			res, err := st.Run(Options{MaxCycles: cycles})
			if err != nil {
				t.Fatal(err)
			}
			wantFlops += cycles * stepFlops(on, tc.p)
			for c, got := range res.History {
				if want := d.Step(w, nil, ws); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("cycle %d: norm %v, euler.Disc.Step %v", c, got, want)
				}
			}
			for i := range w {
				if res.FineSolution[i] != w[i] {
					t.Fatalf("vertex %d: %v, euler.Disc.Step %v", i, res.FineSolution[i], w[i])
				}
			}

			if got := st.Stats().Total().Flops; got != wantFlops {
				t.Errorf("ledger charged %d flops, want %d (flops.Step per cycle)", got, wantFlops)
			}
			if allocs := testing.AllocsPerRun(5, func() { st.Cycle(0) }); allocs != 0 {
				t.Errorf("%v allocations per cycle, want 0", allocs)
			}
		})
	}
}

// TestSequentialMultigridIsSerialBitwise pins Open's contract at one
// worker: the sequential multigrid runs the pooled engine's kernels at one worker in
// each mesh's own order, so its residual history and fine solution equal
// multigrid.Solver's bit for bit on the generated sequences as they come —
// a V-cycle over 2 levels, a W-cycle over 3, the 24x16x12 channel's, whose
// fine mesh has more vertices than a residual-norm block, and a sequence
// whose every level is scrambled — both from the freestream and after
// full-multigrid initialization (FMGInit).
func TestSequentialMultigridIsSerialBitwise(t *testing.T) {
	p := euler.DefaultParams(0.675, 0)
	for _, tc := range []struct {
		name          string
		nx, ny, nz    int
		gamma, levels int
		scramble      bool
	}{
		{"V-2-levels", 10, 7, 5, 1, 2, false},
		{"W-3-levels", 10, 7, 5, 2, 3, false},
		{"blocks", 24, 16, 12, 2, 3, false},
		{"scrambled", 10, 7, 5, 2, 3, true},
	} {
		meshes, err := meshgen.Sequence(meshgen.DefaultChannel(tc.nx, tc.ny, tc.nz, 17), tc.levels)
		if err != nil {
			t.Fatal(err)
		}
		for l := range meshes {
			if tc.scramble {
				if meshes[l], err = reorder.Scramble(meshes[l], int64(3+l)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if tc.name == "blocks" && meshes[0].NV() <= euler.NormBlock {
			t.Fatalf("the blocks sequence has %d fine vertices, not more than a norm block (%d)", meshes[0].NV(), euler.NormBlock)
		}
		for _, fmg := range []int{0, 5} {
			t.Run(fmt.Sprintf("%s/fmg=%d", tc.name, fmg), func(t *testing.T) {
				ref, err := multigrid.New(meshes, p, tc.gamma)
				if err != nil {
					t.Fatal(err)
				}
				st, err := Open(meshes, p, Config{Gamma: tc.gamma})
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				if fmg > 0 {
					ref.FMGInit(fmg)
					st.MG.FMGInit(fmg)
				}
				mgBitwise(t, "mg", st, ref, 5)
			})
		}
	}
}

// TestPooledFMGIsSerialBitwise: full-multigrid initialization on the
// pooled multigrid is one schedule (multigrid.FMG) over the pooled hooks,
// so at 1, 2 and 3 workers it equals multigrid.Solver's FMGInit bit for
// bit, and with it the cycles that follow — on a fresh engine, and on one that has cycled first, whose
// coarse levels hold forcings FMG must clear before each starts as the
// finest grid.
func TestPooledFMGIsSerialBitwise(t *testing.T) {
	p := euler.DefaultParams(0.675, 0)
	meshes, err := meshgen.Sequence(meshgen.DefaultChannel(10, 7, 5, 17), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, gamma := range []int{1, 2} {
		for _, before := range []int{0, 2} {
			for _, nw := range []int{1, 2, 3} {
				ref, err := multigrid.New(meshes, p, gamma)
				if err != nil {
					t.Fatal(err)
				}
				st, err := Open(meshes, p, Config{Workers: nw, Gamma: gamma})
				if err != nil {
					t.Fatal(err)
				}
				for c := 0; c < before; c++ {
					ref.Cycle()
					st.Cycle(c)
				}
				ref.FMGInit(5)
				st.MG.FMGInit(5)
				mgBitwise(t, fmt.Sprintf("gamma=%d cycled=%d workers=%d", gamma, before, nw), st, ref, 4)
				st.Close()
			}
		}
	}
}

// mgBitwise runs cycles cycles of st and of ref side by side and requires
// equal residual norms and, after them, an equal fine solution.
func mgBitwise(t *testing.T, label string, st *Steady, ref *multigrid.Solver, cycles int) {
	t.Helper()
	res, err := st.Run(Options{MaxCycles: cycles})
	if err != nil {
		t.Fatal(err)
	}
	for c, got := range res.History {
		if want := ref.Cycle(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: cycle %d norm %v, multigrid.Solver %v", label, c, got, want)
		}
	}
	for i, w := range ref.Fine().W {
		if res.FineSolution[i] != w {
			t.Fatalf("%s: vertex %d: %v, multigrid.Solver %v", label, i, res.FineSolution[i], w)
		}
	}
}
