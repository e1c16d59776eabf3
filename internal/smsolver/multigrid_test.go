package smsolver

import (
	"math"
	"runtime"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/multigrid"
)

func testSequence(t *testing.T, levels int) []*mesh.Mesh {
	t.Helper()
	meshes, err := meshgen.Sequence(meshgen.DefaultChannel(12, 8, 6, 17), levels)
	if err != nil {
		t.Fatal(err)
	}
	return meshes
}

// Pooled multigrid must be bitwise identical for every worker count, for
// both V- and W-cycles: owner-computes sweeps in the mesh's order,
// disjoint writes per chunk, and the block-ordered norm reduction make the
// chunking invisible.
func TestMultigridBitwiseAcrossWorkers(t *testing.T) {
	meshes := testSequence(t, 3)
	p := euler.DefaultParams(0.675, 0)
	for _, gamma := range []int{1, 2} {
		var ref []euler.State
		var refNorms []float64
		for _, nw := range []int{1, 2, 3, runtime.GOMAXPROCS(0), 8} {
			mg, err := NewMultigrid(meshes, p, gamma, nw)
			if err != nil {
				t.Fatal(err)
			}
			var norms []float64
			for c := 0; c < 4; c++ {
				norms = append(norms, mg.Cycle())
			}
			w := mg.Fine().W
			if ref == nil {
				ref = append([]euler.State(nil), w...)
				refNorms = norms
				mg.Close()
				continue
			}
			for i := range w {
				if w[i] != ref[i] {
					t.Fatalf("gamma=%d nworkers=%d: vertex %d differs: %v vs %v", gamma, nw, i, w[i], ref[i])
				}
			}
			for c := range norms {
				if norms[c] != refNorms[c] {
					t.Fatalf("gamma=%d nworkers=%d: cycle %d norm %v vs %v", gamma, nw, c, norms[c], refNorms[c])
				}
			}
			mg.Close()
		}
	}
}

// Against the serial multigrid the pooled cycles agree bit for bit — the
// roundoff this test once allowed is gone. The sweep counts steer the
// correction smoother, which loads the prolonged []State correction into
// the SoA residual block: two sweeps leave the result there, three end in
// the ping-pong scratch (copy-back), and with averaging off the load alone
// must still reach the guarded apply.
func TestMultigridMatchesSerialToRoundoff(t *testing.T) {
	meshes := testSequence(t, 3)
	for _, tc := range []struct {
		name    string
		eps     float64
		nsmooth int
	}{{"two-sweeps", 0.6, 2}, {"three-sweeps", 0.6, 3}, {"averaging-off", 0, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			p := euler.DefaultParams(0.675, 0)
			p.EpsSmooth, p.NSmooth = tc.eps, tc.nsmooth
			if tc.eps == 0 {
				p.CFL = 2 // the unsmoothed scheme's stability limit is lower
			}
			serial, err := multigrid.New(meshes, p, 2)
			if err != nil {
				t.Fatal(err)
			}
			mg, err := NewMultigrid(meshes, p, 2, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer mg.Close()
			for c := 0; c < 4; c++ {
				ns := serial.Cycle()
				np := mg.Cycle()
				if math.Float64bits(ns) != math.Float64bits(np) {
					t.Fatalf("cycle %d: serial norm %v pooled %v", c, ns, np)
				}
			}
			ws, wp := serial.Fine().W, mg.Fine().W
			for i := range ws {
				if ws[i] != wp[i] {
					t.Fatalf("vertex %d: serial %v pooled %v", i, ws[i], wp[i])
				}
			}
		})
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Freestream must be preserved exactly through pooled cycles on an
// unperturbed channel (zero residual up to the scheme's own roundoff).
func TestMultigridFreestreamPreserved(t *testing.T) {
	spec := meshgen.DefaultChannel(8, 6, 5, 3)
	spec.BumpHeight = 0
	meshes, err := meshgen.Sequence(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := euler.DefaultParams(0.5, 0)
	mg, err := NewMultigrid(meshes, p, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()
	for c := 0; c < 3; c++ {
		mg.Cycle()
	}
	free := p.Freestream
	for i, w := range mg.Fine().W {
		for k := 0; k < euler.NVar; k++ {
			if abs(w[k]-free[k]) > 1e-10*(abs(free[k])+1) {
				t.Fatalf("vertex %d var %d drifted: %v vs %v", i, k, w[k], free[k])
			}
		}
	}
}

// A steady-state pooled multigrid cycle must not allocate: all scratch,
// chunk tables and transfer plans are owned by the solver, and the
// fork/join barrier runs on prebuilt channels.
func TestMultigridCycleZeroAllocs(t *testing.T) {
	meshes := testSequence(t, 2)
	p := euler.DefaultParams(0.675, 0)
	for _, gamma := range []int{1, 2} {
		mg, err := NewMultigrid(meshes, p, gamma, 2)
		if err != nil {
			t.Fatal(err)
		}
		mg.Cycle() // warm up (lazy runtime state, timer paths)
		allocs := testing.AllocsPerRun(5, func() {
			mg.Cycle()
		})
		mg.Close()
		if allocs != 0 {
			t.Fatalf("gamma=%d: steady-state Cycle allocates %.1f times", gamma, allocs)
		}
	}
}

// W-cycles revisit coarse levels with the same parked workers; run a few
// under the race detector (make race) with the full worker set.
func TestMultigridWCycleStress(t *testing.T) {
	meshes := testSequence(t, 3)
	p := euler.DefaultParams(0.675, 0)
	nw := runtime.GOMAXPROCS(0)
	if nw < 4 {
		nw = 4
	}
	mg, err := NewMultigrid(meshes, p, 2, nw)
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()
	last := 0.0
	for c := 0; c < 6; c++ {
		last = mg.Cycle()
	}
	if last <= 0 {
		t.Fatalf("expected positive residual norm, got %v", last)
	}
}

// Per-level stats must carry the analytic flop charges for every level.
func TestMultigridStatsPerLevel(t *testing.T) {
	meshes := testSequence(t, 2)
	p := euler.DefaultParams(0.675, 0)
	mg, err := NewMultigrid(meshes, p, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()
	mg.Cycle()
	st := mg.Stats()
	if len(st.Phases) != 4*mg.NumLevels() {
		t.Fatalf("expected %d phases, got %d", 4*mg.NumLevels(), len(st.Phases))
	}
	wantPositive := map[string]bool{"L0 steps": true, "L0 residuals": true, "L0 transfers": true,
		"L0 corrections": true, "L1 steps": true}
	for _, ph := range st.Phases {
		if wantPositive[ph.Name] && ph.Flops <= 0 {
			t.Fatalf("phase %q has no flop charge", ph.Name)
		}
	}
	if st.Total().Flops != mg.CycleFlops() {
		t.Fatalf("one cycle charged %d flops, CycleFlops says %d", st.Total().Flops, mg.CycleFlops())
	}
}

func TestMultigridValidation(t *testing.T) {
	meshes := testSequence(t, 2)
	p := euler.DefaultParams(0.675, 0)
	if _, err := NewMultigrid(nil, p, 1, 1); err == nil {
		t.Fatal("expected error for empty mesh list")
	}
	if _, err := NewMultigrid(meshes, p, 0, 1); err == nil {
		t.Fatal("expected error for gamma 0")
	}
}

func TestMultigridCloseIdempotent(t *testing.T) {
	meshes := testSequence(t, 2)
	mg, err := NewMultigrid(meshes, euler.DefaultParams(0.675, 0), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	mg.Cycle()
	mg.Close()
	mg.Close()
}

// TestSequentialMultigridLevelsAreSerial: the sequential multigrid — the
// pooled one at one worker — is multigrid.Solver on every level, not only
// the finest, and so is the pool at two workers: after a full-multigrid
// initialization and after each W-cycle that follows, each level's
// solution equals the reference's bit for bit, on a generated sequence as
// it comes.
func TestSequentialMultigridLevelsAreSerial(t *testing.T) {
	meshes := testSequence(t, 3)
	p := euler.DefaultParams(0.675, 0)
	for _, nw := range []int{1, 2} {
		ref, err := multigrid.New(meshes, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		mg, err := NewMultigrid(meshes, p, 2, nw)
		if err != nil {
			t.Fatal(err)
		}
		ref.FMGInit(3)
		mg.FMGInit(3)
		for c := 0; c <= 3; c++ {
			if c > 0 {
				if got, want := mg.Cycle(), ref.Cycle(); got != want {
					t.Fatalf("nw=%d cycle %d: norm %v, multigrid.Solver %v", nw, c, got, want)
				}
			}
			for l, lev := range mg.levels {
				for i, w := range ref.Levels[l].W {
					if lev.W[i] != w {
						t.Fatalf("nw=%d after cycle %d: level %d vertex %d: %v, multigrid.Solver %v", nw, c, l, i, lev.W[i], w)
					}
				}
			}
		}
		mg.Close()
	}
}
