package adapt

import (
	"context"
	"math"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/meshgen"
	"eul3d/internal/refine"
	"eul3d/internal/scenario"
	"eul3d/internal/solver"
)

func sodRun(t *testing.T, engine solver.Config) *Result {
	t.Helper()
	sc := scenario.Sod
	ms, err := sc.Meshes(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{
		Mesh:      ms[0],
		Init:      sc.InitialState(ms[0]),
		Params:    sc.Params(),
		Engine:    engine,
		Steps:     sc.Steps,
		Interval:  50,
		MaxEpochs: 2,
		Indicator: "density",
		Frac:      0.1,
	})
	if err != nil {
		t.Fatalf("adaptive sod (%+v): %v", engine, err)
	}
	return res
}

// TestAdaptiveSodGolden is the golden regression: the adaptive Sod run
// must refine at least two epochs, produce a conforming mesh, stay
// bitwise-deterministic across pooled worker counts at the fixed
// adaptation schedule, pass the scenario physics check, and beat the
// fixed-mesh L1 tolerance.
func TestAdaptiveSodGolden(t *testing.T) {
	sc := scenario.Sod
	var ref *Result
	for _, nw := range []int{1, 2, 4} {
		res := sodRun(t, solver.Config{Kind: solver.KindSM, Workers: nw})
		if len(res.Epochs) < 2 {
			t.Fatalf("nw=%d: only %d adaptation epochs, want >= 2", nw, len(res.Epochs))
		}
		for i, ep := range res.Epochs {
			if ep.CellsAfter <= ep.CellsBefore {
				t.Fatalf("nw=%d epoch %d did not grow the mesh: %d -> %d", nw, i, ep.CellsBefore, ep.CellsAfter)
			}
		}
		if err := res.Mesh.Validate(1e-9); err != nil {
			t.Fatalf("nw=%d: adapted mesh invalid: %v", nw, err)
		}
		if ref == nil {
			ref = res
			d := sc.Diagnose(res.Mesh, res.Solution, res.FinalNorm)
			if err := sc.Check(d); err != nil {
				t.Fatalf("physics check failed on adapted run: %v", err)
			}
			if d.L1Density > sc.L1Tol {
				t.Fatalf("adaptive L1 density error %.6g exceeds fixed-mesh tolerance %g", d.L1Density, sc.L1Tol)
			}
			t.Logf("adaptive sod: %d steps, %d cells (from %d), L1 %.6g (tol %g)",
				res.Steps, res.Mesh.NT(), ref.Epochs[0].CellsBefore, d.L1Density, sc.L1Tol)
			continue
		}
		if res.Steps != ref.Steps || len(res.History) != len(ref.History) {
			t.Fatalf("nw=%d: schedule diverged: %d steps vs %d", nw, res.Steps, ref.Steps)
		}
		for i := range res.History {
			if res.History[i] != ref.History[i] {
				t.Fatalf("nw=%d: history[%d] differs: %.17g vs %.17g", nw, i, res.History[i], ref.History[i])
			}
		}
		if res.Mesh.NT() != ref.Mesh.NT() || res.Mesh.NV() != ref.Mesh.NV() {
			t.Fatalf("nw=%d: adapted mesh differs in size", nw)
		}
		for i := range res.Solution {
			if res.Solution[i] != ref.Solution[i] {
				t.Fatalf("nw=%d: solution vertex %d differs", nw, i)
			}
		}
	}
}

// TestAdaptiveSodSingle runs the sequential engine through the same
// schedule: it must refine the same two epochs, pass the physics check
// (not bitwise against sm — the colored engine reorders accumulations),
// shrink the global step when refinement shrinks the smallest cells, and
// still land exactly on the final time (sum of steps*dt == Steps*dt0).
func TestAdaptiveSodSingle(t *testing.T) {
	sc := scenario.Sod
	res := sodRun(t, solver.Config{})
	if len(res.Epochs) < 2 {
		t.Fatalf("single engine: %d epochs, want >= 2", len(res.Epochs))
	}
	d := sc.Diagnose(res.Mesh, res.Solution, res.FinalNorm)
	if err := sc.Check(d); err != nil {
		t.Fatalf("physics check failed: %v", err)
	}
	p := sc.Params()
	for i, ep := range res.Epochs {
		if !(ep.Dt > 0 && ep.Dt < p.GlobalDt) {
			t.Fatalf("epoch %d: dt %.6g not shrunk below %g", i, ep.Dt, p.GlobalDt)
		}
	}
	if res.Steps <= sc.Steps {
		t.Fatalf("refined run took %d steps, want more than the fixed-mesh %d", res.Steps, sc.Steps)
	}
	// Reconstruct total integrated time from the epoch schedule: steps
	// before the first epoch at dt0, between epochs at each epoch's dt.
	total := 0.0
	prevStep, prevDt := 0, p.GlobalDt
	for _, ep := range res.Epochs {
		total += float64(ep.Step-prevStep) * prevDt
		prevStep, prevDt = ep.Step, ep.Dt
	}
	total += float64(res.Steps-prevStep) * prevDt
	want := float64(sc.Steps) * p.GlobalDt
	if diff := total - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("integrated time %.17g != final time %.17g", total, want)
	}
}

// TestAdaptResume: cancelling mid-run and resuming from the record
// reproduces the uninterrupted run bitwise, including across an
// adaptation epoch boundary — on the sequential engine and on the pooled
// one, whose layout is a function of the current mesh alone, so an engine
// built fresh on the adapted mesh is the engine that was rebuilt onto it.
func TestAdaptResume(t *testing.T) {
	for _, engine := range []solver.Config{{Kind: solver.KindSingle}, {Kind: solver.KindSM, Workers: 2}} {
		t.Run(engine.Kind, func(t *testing.T) { testAdaptResume(t, engine) })
	}
}

func testAdaptResume(t *testing.T, engine solver.Config) {
	sc := scenario.Sod
	ms, err := sc.Meshes(1)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{
		Params:    sc.Params(),
		Engine:    engine,
		Steps:     sc.Steps,
		Interval:  40,
		MaxEpochs: 2,
		Indicator: "density",
		Frac:      0.08,
	}

	full := base
	full.Mesh, full.Init = ms[0], sc.InitialState(ms[0])
	refRes, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(refRes.Epochs) < 2 {
		t.Fatalf("reference run had %d epochs", len(refRes.Epochs))
	}

	// Cancel partway through (after the first epoch has fired).
	ctx, cancel := context.WithCancel(context.Background())
	cut := refRes.Epochs[0].Step + 10
	interrupted := base
	interrupted.Mesh, interrupted.Init = ms[0], sc.InitialState(ms[0])
	interrupted.Context = ctx
	interrupted.Progress = func(step int, _ float64) {
		if step == cut {
			cancel()
		}
	}
	part, err := Run(interrupted)
	if err != nil {
		t.Fatal(err)
	}
	if !part.Cancelled || part.Snap == nil {
		t.Fatal("cancelled run did not return a record")
	}
	if part.Snap.Epochs != 1 {
		t.Fatalf("record at step %d has %d epochs, want 1", part.Snap.Cycle, part.Snap.Epochs)
	}

	resumed := base
	resumed.Mesh, resumed.Resume = part.Mesh, part.Snap
	res2, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Steps != refRes.Steps || len(res2.History) != len(refRes.History) {
		t.Fatalf("resumed run: %d steps vs %d uninterrupted", res2.Steps, refRes.Steps)
	}
	for i := range res2.History {
		if res2.History[i] != refRes.History[i] {
			t.Fatalf("history[%d] differs after resume: %.17g vs %.17g", i, res2.History[i], refRes.History[i])
		}
	}
	for i := range res2.Solution {
		if res2.Solution[i] != refRes.Solution[i] {
			t.Fatalf("solution vertex %d differs after resume", i)
		}
	}
}

func TestIndicatorKinds(t *testing.T) {
	sc := scenario.Sod
	ms, err := sc.Meshes(1)
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	w := sc.InitialState(m)
	p := sc.Params()
	for _, kind := range []string{"density", "pressure", "residual"} {
		ind, err := newIndicator(kind)
		if err != nil {
			t.Fatal(err)
		}
		eta, err := ind.compute(m, w, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(eta) != m.NT() {
			t.Fatalf("%s: %d values for %d cells", kind, len(eta), m.NT())
		}
		max, nonzero := 0.0, 0
		for _, e := range eta {
			if e < 0 {
				t.Fatalf("%s: negative indicator %g", kind, e)
			}
			if e > 0 {
				nonzero++
			}
			if e > max {
				max = e
			}
		}
		// The Sod diaphragm is a density+pressure jump with a nonzero
		// residual: every indicator must light up somewhere, and only near
		// the discontinuity.
		if max <= 0 || nonzero == 0 {
			t.Fatalf("%s: indicator flat on a shock tube", kind)
		}
		if nonzero > m.NT()/2 {
			t.Fatalf("%s: %d of %d cells flagged on a single discontinuity", kind, nonzero, m.NT())
		}
		marked, n := markCells(eta, 0.1, 4*m.NT(), m.NT())
		if n == 0 || n > m.NT()/10+1 {
			t.Fatalf("%s: marked %d cells", kind, n)
		}
		cnt := 0
		for _, mk := range marked {
			if mk {
				cnt++
			}
		}
		if cnt != n {
			t.Fatalf("%s: mark count mismatch %d vs %d", kind, cnt, n)
		}
	}
	if _, err := newIndicator("bogus"); err == nil {
		t.Fatal("unknown indicator accepted")
	}
}

// TestResidualIndicatorIsDiscResidual holds the residual indicator to the
// reference operator bit for bit: its eta equals max |R_rho|/V over each
// cell's vertices with R from euler.Disc.Residual, on a jittered channel
// carrying a non-uniform state, and again after each epoch's refinement,
// where the indicator's engine is rebuilt rather than built anew.
func TestResidualIndicatorIsDiscResidual(t *testing.T) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(8, 5, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	p := euler.DefaultParams(0.675, 1)
	w := make([]euler.State, m.NV())
	euler.NewDisc(m, p).InitUniform(w)
	for i, x := range m.X {
		w[i][0] *= 1 + 0.1*math.Sin(3*x.X)*math.Cos(2*x.Y)
		w[i][4] *= 1 + 0.05*math.Cos(4*x.Z+x.X)
	}
	ind, err := newIndicator("residual")
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 3; epoch++ {
		eta, err := ind.compute(m, w, p)
		if err != nil {
			t.Fatal(err)
		}
		res := make([]euler.State, m.NV())
		euler.NewDisc(m, p).Residual(w, nil, res)
		for c, tet := range m.Tets {
			want := 0.0
			for _, v := range tet {
				want = math.Max(want, math.Abs(res[v][0])/m.Vol[v])
			}
			if math.Float64bits(eta[c]) != math.Float64bits(want) {
				t.Fatalf("epoch %d (%d cells): cell %d eta %.17g, Disc.Residual gives %.17g", epoch, m.NT(), c, eta[c], want)
			}
		}
		marked, _ := markCells(eta, 0.2, 4*m.NT(), m.NT())
		r, err := refine.Selective(m, marked)
		if err != nil {
			t.Fatal(err)
		}
		w, m = Transfer(r, w, &p), r.Mesh
	}
}

func TestTransferAdmissible(t *testing.T) {
	sc := scenario.Sod
	ms, err := sc.Meshes(1)
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	w := sc.InitialState(m)
	p := sc.Params()
	marked := make([]bool, m.NT())
	for i := 0; i < len(marked); i += 4 {
		marked[i] = true
	}
	r, err := refine.Selective(m, marked)
	if err != nil {
		t.Fatal(err)
	}
	out := Transfer(r, w, &p)
	if len(out) != r.Mesh.NV() {
		t.Fatalf("transfer produced %d states for %d vertices", len(out), r.Mesh.NV())
	}
	for i := 0; i < r.NVOld; i++ {
		if out[i] != w[i] {
			t.Fatalf("surviving vertex %d changed state", i)
		}
	}
	for i, st := range out {
		if !(st[0] > 0) || !(p.Gas.Pressure(st) > 0) {
			t.Fatalf("vertex %d inadmissible after transfer: rho=%g p=%g", i, st[0], p.Gas.Pressure(st))
		}
	}
	var em euler.State
	for k, pr := range r.MidParents {
		for c := 0; c < euler.NVar; c++ {
			em[c] = 0.5 * (w[pr[0]][c] + w[pr[1]][c])
		}
		if out[r.NVOld+k] != p.Repair(em) {
			t.Fatalf("midpoint %d not the repaired parent average", k)
		}
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	sc := scenario.Sod
	ms, err := sc.Meshes(1)
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	w := sc.InitialState(m)
	p := sc.Params()
	cases := []Options{
		{Mesh: nil, Init: w, Params: p, Steps: 10},
		{Mesh: m, Init: w[:3], Params: p, Steps: 10},
		{Mesh: m, Init: w, Params: p, Steps: 0},
		{Mesh: m, Init: w, Params: p, Steps: 10, Engine: solver.Config{Kind: "warp"}},
		{Mesh: m, Init: w, Params: p, Steps: 10, Indicator: "entropy"},
	}
	for i, opt := range cases {
		if _, err := Run(opt); err == nil {
			t.Fatalf("case %d: bad options accepted", i)
		}
	}
}
