package multigrid

import (
	"math"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
)

func sequence(t *testing.T, nx, ny, nz, levels int) []*mesh.Mesh {
	t.Helper()
	seq, err := meshgen.Sequence(meshgen.DefaultChannel(nx, ny, nz, 17), levels)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func TestBuildTransferPartitionOfUnity(t *testing.T) {
	seq := sequence(t, 8, 6, 4, 2)
	op, err := BuildTransfer(seq[1], seq[0]) // coarse vertices in fine mesh
	if err != nil {
		t.Fatal(err)
	}
	if len(op.Addr) != seq[1].NV() {
		t.Fatalf("op sized %d, want %d", len(op.Addr), seq[1].NV())
	}
	for v := range op.Wt {
		sum := 0.0
		for k := 0; k < 4; k++ {
			w := op.Wt[v][k]
			if w < 0 || w > 1 {
				t.Fatalf("vertex %d: weight %v out of [0,1]", v, w)
			}
			sum += w
			a := op.Addr[v][k]
			if a < 0 || int(a) >= seq[0].NV() {
				t.Fatalf("vertex %d: address %d out of range", v, a)
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("vertex %d: weights sum to %v", v, sum)
		}
	}
}

func TestTransferReproducesLinearField(t *testing.T) {
	// Interpolating a linear function through barycentric weights is exact
	// for interior points (and a boundary projection elsewhere).
	seq := sequence(t, 10, 8, 6, 2)
	fine, coarse := seq[0], seq[1]
	op, err := BuildTransfer(coarse, fine)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]euler.State, fine.NV())
	for i, x := range fine.X {
		v := 1 + 2*x.X - 3*x.Y + 0.5*x.Z
		src[i] = euler.State{v, 2 * v, -v, 0.25 * v, v * 3}
	}
	dst := make([]euler.State, coarse.NV())
	op.Interp(src, dst)
	maxErr := 0.0
	for i, x := range coarse.X {
		want := 1 + 2*x.X - 3*x.Y + 0.5*x.Z
		maxErr = math.Max(maxErr, math.Abs(dst[i][0]-want))
	}
	// Non-nested boundaries mean slight extrapolation error is allowed,
	// but it must be small relative to the field scale.
	if maxErr > 0.05 {
		t.Errorf("linear reproduction max error %g", maxErr)
	}
}

func TestScatterTransposeConservative(t *testing.T) {
	seq := sequence(t, 8, 6, 4, 2)
	fine, coarse := seq[0], seq[1]
	op, err := BuildTransfer(fine, coarse) // fine vertices in coarse mesh
	if err != nil {
		t.Fatal(err)
	}
	src := make([]euler.State, fine.NV())
	var want euler.State
	for i := range src {
		for k := 0; k < euler.NVar; k++ {
			src[i][k] = math.Sin(float64(i + k)) // arbitrary
			want[k] += src[i][k]
		}
	}
	dst := make([]euler.State, coarse.NV())
	op.ScatterTranspose(src, dst)
	var got euler.State
	for i := range dst {
		for k := 0; k < euler.NVar; k++ {
			got[k] += dst[i][k]
		}
	}
	for k := 0; k < euler.NVar; k++ {
		if math.Abs(got[k]-want[k]) > 1e-9*(1+math.Abs(want[k])) {
			t.Errorf("var %d: scatter sum %g, want %g", k, got[k], want[k])
		}
	}
}

func TestScheduleV(t *testing.T) {
	got := FormatSchedule(Schedule(3, 1))
	want := "E0 E1 E2 I1 I0"
	if got != want {
		t.Errorf("V schedule = %q, want %q", got, want)
	}
}

func TestScheduleW(t *testing.T) {
	got := FormatSchedule(Schedule(4, 2))
	// One step on the way down per visit; coarsest not revisited twice in
	// a row; recursive double visits at intermediate levels.
	want := "E0 E1 E2 E3 I2 E2 E3 I2 I1 E1 E2 E3 I2 E2 E3 I2 I1 I0"
	if got != want {
		t.Errorf("W schedule = %q, want %q", got, want)
	}
}

func TestScheduleSingleLevel(t *testing.T) {
	if got := FormatSchedule(Schedule(1, 2)); got != "E0" {
		t.Errorf("single-level schedule = %q", got)
	}
}

func TestDiagramShape(t *testing.T) {
	d := Diagram(3, 1)
	lines := 0
	for _, c := range d {
		if c == '\n' {
			lines++
		}
	}
	if lines != 3 {
		t.Errorf("diagram has %d rows, want 3:\n%s", lines, d)
	}
}

func newSolver(t *testing.T, gamma int) *Solver {
	t.Helper()
	seq := sequence(t, 16, 8, 4, 3)
	s, err := New(seq, euler.DefaultParams(0.5, 0), gamma)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, euler.DefaultParams(0.5, 0), 1); err == nil {
		t.Error("accepted empty mesh list")
	}
	seq := sequence(t, 4, 4, 4, 1)
	if _, err := New(seq, euler.DefaultParams(0.5, 0), 0); err == nil {
		t.Error("accepted gamma=0")
	}
}

func TestCyclePreservesFreestream(t *testing.T) {
	// On a bumpless channel the freestream is an exact solution; the FAS
	// forcing must then vanish and cycles must not perturb the solution.
	spec := meshgen.DefaultChannel(8, 6, 4, 21)
	spec.BumpHeight = 0
	seq, err := meshgen.Sequence(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(seq, euler.DefaultParams(0.6, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		if norm := s.Cycle(); norm > 1e-10 {
			t.Fatalf("cycle %d: freestream residual %g", c, norm)
		}
	}
	free := s.Fine().Disc.P.Freestream
	for i, w := range s.Fine().W {
		for k := 0; k < euler.NVar; k++ {
			if math.Abs(w[k]-free[k]) > 1e-9 {
				t.Fatalf("vertex %d: freestream perturbed: %v", i, w)
			}
		}
	}
}

func TestMultigridAcceleratesConvergence(t *testing.T) {
	// The Figure 2 claim, in miniature: after equal numbers of cycles, the
	// multigrid residual is far below the single-grid residual.
	if testing.Short() {
		t.Skip("short mode")
	}
	// Bump-channel resolutions below ~32x16x12 sit in a marginal
	// limit cycle that masks the asymptotic rates; use the smallest clean
	// configuration (also the Figure 2 default).
	seq := sequence(t, 32, 16, 12, 4)
	p := euler.DefaultParams(0.675, 0)

	single := euler.NewDisc(seq[0], p)
	w := make([]euler.State, seq[0].NV())
	single.InitUniform(w)
	ws := euler.NewStepWorkspace(len(w))
	var sgNorm float64
	for c := 0; c < 60; c++ {
		sgNorm = single.Step(w, nil, ws)
	}

	mg, err := New(seq, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	var mgNorm float64
	for c := 0; c < 60; c++ {
		mgNorm = mg.Cycle()
	}
	t.Logf("after 60 cycles: single-grid %.3e, W-cycle %.3e", sgNorm, mgNorm)
	if !(mgNorm < sgNorm/10) {
		t.Errorf("W-cycle did not accelerate by 10x: single %g vs multigrid %g", sgNorm, mgNorm)
	}
}

func TestWorkUnits(t *testing.T) {
	v := newSolver(t, 1)
	wcy := newSolver(t, 2)
	wuV, wuW := v.cost.WorkUnits(1), wcy.cost.WorkUnits(2)
	if wuV <= 1 || wuW <= wuV {
		t.Errorf("work units: V=%v W=%v", wuV, wuW)
	}
}

// TestStatsChargeTheLedger: one cycle charges Stats exactly the flops the
// ledger says a cycle costs, V and W.
func TestStatsChargeTheLedger(t *testing.T) {
	for _, gamma := range []int{1, 2} {
		s := newSolver(t, gamma)
		s.Cycle()
		if got, want := s.Stats().Total().Flops, s.cost.CycleFlops(gamma); got != want {
			t.Errorf("gamma %d: one cycle charged %d flops, the ledger says %d", gamma, got, want)
		}
	}
}

func TestMemoryOverhead(t *testing.T) {
	ov := MemoryOverhead(sequence(t, 16, 8, 4, 3))
	if ov <= 0 || ov > 1 {
		t.Errorf("memory overhead = %v, expected a modest fraction", ov)
	}
	t.Logf("multigrid memory overhead: %.1f%% (paper: ~33%%)", 100*ov)
}

func TestFMGInitAcceleratesSubcriticalSolve(t *testing.T) {
	// Full-multigrid initialization pays off on smooth (subcritical)
	// flows, where the coarse-grid solution is already a good picture of
	// the fine one; at transonic conditions the coarse grids place the
	// shock differently and the benefit shrinks.
	seq := sequence(t, 24, 12, 8, 3)
	p := euler.DefaultParams(0.5, 0)

	cold, err := New(seq, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	fmg, err := New(seq, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	fmg.FMGInit(25)
	// The FMG solution must be physical everywhere before fine cycles.
	g := p.Gas
	for i, w := range fmg.Fine().W {
		if w[0] <= 0 || g.Pressure(w) <= 0 {
			t.Fatalf("unphysical FMG state at vertex %d: %v", i, w)
		}
	}
	var coldN, fmgN float64
	for c := 0; c < 25; c++ {
		coldN = cold.Cycle()
		fmgN = fmg.Cycle()
	}
	t.Logf("after 25 fine cycles: cold %.3e, FMG %.3e", coldN, fmgN)
	if !(fmgN < coldN/2) {
		t.Errorf("FMG did not accelerate the solve: %g vs %g", fmgN, coldN)
	}
}
