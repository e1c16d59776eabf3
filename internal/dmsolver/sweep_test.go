package dmsolver

import (
	"math"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/parti"
)

// hookDriver runs the program on another driver and calls before ahead of
// every exchange — the one place a test can stand between two phases.
type hookDriver struct {
	driver
	before func(x driver, dir parti.Dir, sch *parti.Schedule, lev *Level, a parti.Arrays)
}

func (d hookDriver) exchange(dir parti.Dir, sch *parti.Schedule, lev *Level, a parti.Arrays) error {
	d.before(d.driver, dir, sch, lev, a)
	return d.driver.exchange(dir, sch, lev, a)
}

// runOn runs prog once on s's processors mapped onto w workers, as Cycle
// runs a cycle, and returns processor 0's result and the first error.
func runOn(s *Solver, w int, prog func(x driver) (float64, error)) (float64, error) {
	x := newExecutor(s, w, prog)
	defer x.pool.Shutdown()
	return x.run()
}

// onWorkers runs program on w workers and returns its first error.
func onWorkers(s *Solver, w int, program func(x driver) error) error {
	_, err := runOn(s, w, func(x driver) (float64, error) { return 0, program(x) })
	return err
}

// wrappedCycle is a cycle on w workers with every worker's driver wrapped.
func wrappedCycle(s *Solver, w int, wrap func(driver) driver) (float64, error) {
	return runOn(s, w, func(x driver) (float64, error) { return s.cycle(wrap(x), 0) })
}

// sequential returns the driver of a one-worker executor on s: every
// processor's phases on the calling goroutine, every exchange all sends
// then all receives.
func sequential(s *Solver) driver { return &newExecutor(s, 1, nil).blocks[0] }

// oracle is the reference operator of euler/ops.go on processor-local AoS
// arrays over the edge span: what every edge and face phase of ops.go
// called before it ran the SoA kernels.
type oracle struct {
	pres, lam, num, den [][]float64
	conv, lapl, diss    [][]euler.State
}

func newOracle(lev *Level) *oracle {
	n := len(lev.W)
	f := func() [][]float64 {
		a := make([][]float64, n)
		for p := range a {
			a[p] = make([]float64, lev.EdgeSpan[p])
		}
		return a
	}
	st := func() [][]euler.State {
		a := make([][]euler.State, n)
		for p := range a {
			a[p] = make([]euler.State, lev.EdgeSpan[p])
		}
		return a
	}
	return &oracle{pres: f(), lam: f(), num: f(), den: f(), conv: st(), lapl: st(), diss: st()}
}

// sameBlock fails unless the kernel's sums b equal the reference's ref
// bitwise on [0, n).
func sameBlock(t *testing.T, what string, p int, b, ref []euler.State, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if got := b[i]; got != ref[i] {
			t.Fatalf("%s, processor %d, local vertex %d of %d: kernel %v, reference %v", what, p, i, n, got, ref[i])
		}
	}
}

func sameFloats(t *testing.T, what string, p int, got, ref []float64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if got[i] != ref[i] {
			t.Fatalf("%s, processor %d, local vertex %d of %d: kernel %v, reference %v", what, p, i, n, got[i], ref[i])
		}
	}
}

// TestSweepsMatchReferenceOnPartition: a stage's fused sweep and its
// dissipation, run through the program's own phases on P = 1, 3 and 8
// processors, against the reference operator on the same local arrays.
// Every accumulator is bitwise the reference's over [owned | edge ghosts]
// before its scatter-add, and on the owned prefix after it — the same
// per-processor edge order and the same per-slot addition order, so the
// reassociation across partition boundaries is the parent's exactly.
func TestSweepsMatchReferenceOnPartition(t *testing.T) {
	p := euler.DefaultParams(0.675, 0)
	for _, nproc := range []int{1, 3, 8} {
		m, part := channelAndPartition(t, 10, 6, 4, max(nproc, 2))
		if nproc == 1 {
			part = make([]int32, m.NV())
		}
		s, err := NewSingle(m, part, nproc, p)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 2; c++ { // leave the freestream: a uniform field exercises nothing
			if _, err := s.Cycle(); err != nil {
				t.Fatal(err)
			}
		}
		lev, o := s.Levels[0], newOracle(s.Levels[0])
		count := lev.Dist.Count
		mirror := func(dir parti.Dir, a parti.Arrays) {
			t.Helper()
			if err := lev.SchedW.Exchange(s.Fabric, dir, a); err != nil {
				t.Fatal(err)
			}
		}

		// A stage with every part: what stage 0 runs. The hook sees the
		// closing scatter-add of the sweep, the Laplacian + switch re-gather
		// and the scatter-add of pass 2, in that order.
		exchanges := 0
		all := hookDriver{sequential(s), func(x driver, dir parti.Dir, sch *parti.Schedule, _ *Level, a parti.Arrays) {
			exchanges++
			switch exchanges {
			case 1:
				for q := 0; q < nproc; q++ {
					n, w := lev.EdgeSpan[q], lev.W[q]
					euler.Pressures(p.Gas, w[:n], o.pres[q])
					euler.SpectralRadii(p.Gas, lev.Edges[q], lev.ENorm[q], lev.BFaces[q], w, o.pres[q], o.lam[q])
					euler.Convective(&p, lev.Edges[q], lev.ENorm[q], lev.BFaces[q], w, o.pres[q], o.conv[q])
					euler.DissPass1(lev.Edges[q], w, o.pres[q], o.lapl[q], o.num[q], o.den[q])
					sameBlock(t, "conv before its scatter-add", q, lev.Conv[q], o.conv[q], n)
					sameBlock(t, "lapl before its scatter-add", q, lev.lapl[q], o.lapl[q], n)
					sameFloats(t, "num before its scatter-add", q, lev.Num[q], o.num[q], n)
					sameFloats(t, "den before its scatter-add", q, lev.Den[q], o.den[q], n)
					sameFloats(t, "lam before its scatter-add", q, lev.Lam[q], o.lam[q], n)
				}
				if a.Width() != 13 || a.States[1] == nil || a.Floats[2] == nil {
					t.Fatalf("stage 0's scatter-add carries %d floats an item, want conv, lapl | num, den, lam = 13", a.Width())
				}
				// The reference's four scatter-adds, one array at a time.
				mirror(dir, parti.Floats(o.lam))
				mirror(dir, parti.States(o.conv))
				mirror(dir, parti.States(o.lapl))
				mirror(dir, parti.Floats(o.num, o.den))
			case 2:
				for q := 0; q < nproc; q++ {
					n := count(q)
					sameBlock(t, "conv after its scatter-add", q, lev.Conv[q], o.conv[q], n)
					sameFloats(t, "lam after its scatter-add", q, lev.Lam[q], o.lam[q], n)
					euler.ShockSwitch(o.num[q][:n], o.den[q][:n])
					sameBlock(t, "lapl after its scatter-add", q, lev.lapl[q], o.lapl[q], n)
					sameFloats(t, "den after its scatter-add", q, lev.Den[q], o.den[q], n)
					sameFloats(t, "shock switch", q, lev.Num[q], o.num[q], n)
				}
				mirror(dir, parti.States(o.lapl).And(parti.Floats(o.num)))
			case 3:
				for q := 0; q < nproc; q++ {
					n := lev.EdgeSpan[q]
					sameBlock(t, "lapl after its re-gather", q, lev.lapl[q], o.lapl[q], n)
					sameFloats(t, "shock switch after its re-gather", q, lev.Num[q], o.num[q], n)
					euler.DissPass2(&p, lev.Edges[q], lev.ENorm[q], lev.W[q], o.pres[q], o.lapl[q], o.num[q], o.diss[q])
					sameBlock(t, "diss before its scatter-add", q, lev.diss[q], o.diss[q], n)
				}
				mirror(dir, parti.States(o.diss))
			}
		}}
		if err := s.refreshW(sequential(s), lev, lev.SchedW); err != nil {
			t.Fatal(err)
		}
		if err := s.residual(all, lev, false, true, true); err != nil {
			t.Fatal(err)
		}
		if exchanges != 3 {
			t.Fatalf("P = %d: a full stage made %d exchanges, want 3", nproc, exchanges)
		}
		res := make([]euler.State, m.NV())
		for q := 0; q < nproc; q++ {
			n := count(q)
			sameBlock(t, "diss after its scatter-add", q, lev.diss[q], o.diss[q], n)
			euler.CombineResidual(res[:n], o.conv[q], o.diss[q], nil)
			for i := 0; i < n; i++ {
				if lev.Res[q][i] != res[i] {
					t.Fatalf("P = %d: residual of processor %d, vertex %d: %v, reference %v", nproc, q, i, lev.Res[q][i], res[i])
				}
			}
		}

		// A convective-only stage: conv again bitwise, and the dissipation a
		// previous stage left — which the residual still subtracts — intact.
		convOnly := hookDriver{sequential(s), func(x driver, dir parti.Dir, sch *parti.Schedule, _ *Level, a parti.Arrays) {
			for q := 0; q < nproc; q++ {
				euler.Convective(&p, lev.Edges[q], lev.ENorm[q], lev.BFaces[q], lev.W[q], o.pres[q], o.conv[q])
				sameBlock(t, "conv of a convective-only stage", q, lev.Conv[q], o.conv[q], lev.EdgeSpan[q])
			}
			if a.Width() != 5 {
				t.Fatalf("a convective-only stage scatter-adds %d floats an item, want 5", a.Width())
			}
			mirror(dir, parti.States(o.conv))
		}}
		if err := s.residual(convOnly, lev, false, false, false); err != nil {
			t.Fatal(err)
		}
		for q := 0; q < nproc; q++ {
			n := count(q)
			sameBlock(t, "frozen diss", q, lev.diss[q], o.diss[q], n)
			sameFloats(t, "lam of a stage without the part", q, lev.Lam[q], o.lam[q], n)
			euler.CombineResidual(res[:n], o.conv[q], o.diss[q], nil)
			for i := 0; i < n; i++ {
				if lev.Res[q][i] != res[i] {
					t.Fatalf("P = %d: convective-only residual of processor %d, vertex %d differs", nproc, q, i)
				}
			}
		}
	}
}

// poisonTerms overwrites processor p's vertex terms p, 1/rho and c with NaN
// over the whole edge span, ghost range included — through the one door
// this package has to them, the kernel that loads a block, run on an all-NaN
// field into a throwaway block.
func poisonTerms(lev *Level, p int, nan []euler.State) {
	lev.disc[p].ResInitSoAKernel(nan, euler.NewStateSoA(lev.EdgeSpan[p]), 0, lev.EdgeSpan[p])
}

// poisonBeforeRefresh returns a driver that runs the program on x and, ahead
// of the gather that opens every refreshW, poisons the vertex terms and the
// ghost range of W — the edge ghosts the sweeps read — of every processor x
// executes. W is gathered by refreshW and by nothing else, through SchedW
// or, after a step that a restriction follows, the merged schedule around it.
func poisonBeforeRefresh(x driver, nan [][]euler.State) driver {
	return hookDriver{x, func(x driver, dir parti.Dir, sch *parti.Schedule, lev *Level, a parti.Arrays) {
		if dir == parti.Gather && a.States[0] != nil && &a.States[0][0] == &lev.W[0] {
			each(x, func(p int) {
				poisonTerms(lev, p, nan[lev.Index])
				copy(lev.W[p][lev.Dist.Count(p):lev.EdgeSpan[p]], nan[lev.Index])
			})
		}
	}}
}

// TestGhostVertexTermsNeverStale: the sweeps read 1/rho and the sound speed
// of both ends of an edge from per-vertex arrays, ghost ends included, so
// refreshW must rewrite all of them every time. Poisoned before every
// refreshW, under both drivers, single grid and a 3-level W-cycle, the
// residual history must stay finite and not move by a bit.
func TestGhostVertexTermsNeverStale(t *testing.T) {
	const cycles = 4
	nanField := func(s *Solver) [][]euler.State {
		nan := make([][]euler.State, len(s.Levels))
		for l, lev := range s.Levels {
			longest := 0
			for _, n := range lev.EdgeSpan {
				longest = max(longest, n)
			}
			nan[l] = make([]euler.State, longest)
			for i := range nan[l] {
				for k := range nan[l][i] {
					nan[l][i][k] = math.NaN()
				}
			}
		}
		return nan
	}
	poisonedSeq := func(s *Solver, nan [][]euler.State) (float64, error) {
		return wrappedCycle(s, 1, func(x driver) driver { return poisonBeforeRefresh(x, nan) })
	}
	poisonedMIMD := func(s *Solver, nan [][]euler.State) (float64, error) {
		return wrappedCycle(s, s.NProc, func(x driver) driver { return poisonBeforeRefresh(x, nan) })
	}

	// Teeth: a poisoned context, not refreshed, reaches the sweep.
	s := chaosSolver(t)
	lev := s.Levels[0]
	each(sequential(s), func(p int) { poisonTerms(lev, p, nanField(s)[0]) })
	if err := s.residual(sequential(s), lev, false, true, true); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(lev.Res[0][0][0]) {
		t.Fatal("poisoned vertex terms did not reach the sweep: the test has no teeth")
	}

	for _, fixture := range []struct {
		name string
		mk   func(*testing.T) *Solver
	}{{"single", chaosSolver}, {"w3", chaosMultigridSolver}} {
		for _, mode := range []struct {
			name     string
			clean    func(*Solver) (float64, error)
			poisoned func(*Solver, [][]euler.State) (float64, error)
		}{{"seq", (*Solver).Cycle, poisonedSeq}, {"mimd", (*Solver).CycleConcurrent, poisonedMIMD}} {
			t.Run(fixture.name+"/"+mode.name, func(t *testing.T) {
				a, b := fixture.mk(t), fixture.mk(t)
				nan := nanField(b)
				for c := 0; c < cycles; c++ {
					na, err := mode.clean(a)
					if err != nil {
						t.Fatal(err)
					}
					nb, err := mode.poisoned(b, nan)
					if err != nil {
						t.Fatal(err)
					}
					if math.IsNaN(nb) || math.IsInf(nb, 0) || na != nb {
						t.Fatalf("cycle %d: norm %v with every refreshW poisoned, %v clean", c, nb, na)
					}
				}
				wa, wb := a.GatherSolution(), b.GatherSolution()
				for i := range wa {
					if wa[i] != wb[i] {
						t.Fatalf("vertex %d differs after %d poisoned cycles", i, cycles)
					}
				}
			})
		}
	}
}

// TestGlobalDtStepSkipsSpectralRadii: in time-accurate mode stage 0's sweep
// leaves the spectral radii out — Lam is not touched — while the exchange
// count stays the step's 24 (the radii only ever rode another scatter-add),
// and on one processor the step is the sequential engine's bitwise.
func TestGlobalDtStepSkipsSpectralRadii(t *testing.T) {
	m, part := channelAndPartition(t, 8, 5, 4, 4)
	p := euler.DefaultParams(0.6, 0)
	for _, dt := range []float64{0, 1e-3} {
		p.GlobalDt = dt
		s, err := NewSingle(m, part, 4, p)
		if err != nil {
			t.Fatal(err)
		}
		const sentinel = -7.5
		for _, lam := range s.Levels[0].Lam {
			for i := range lam {
				lam[i] = sentinel
			}
		}
		if _, err := s.Cycle(); err != nil {
			t.Fatal(err)
		}
		if n := s.Comm.GatherState + s.Comm.ScatterState + s.Comm.GatherFloat + s.Comm.ScatterFloat; n != 24 {
			t.Errorf("GlobalDt = %g: a step made %d exchanges, want 24", dt, n)
		}
		untouched := true
		for _, lam := range s.Levels[0].Lam {
			for _, v := range lam {
				untouched = untouched && v == sentinel
			}
		}
		if untouched != (dt > 0) {
			t.Errorf("GlobalDt = %g: spectral radii untouched = %v", dt, untouched)
		}
	}

	one, err := NewSingle(m, make([]int32, m.NV()), 1, p) // p.GlobalDt is 1e-3 here
	if err != nil {
		t.Fatal(err)
	}
	seq := euler.NewDisc(m, p)
	w := make([]euler.State, m.NV())
	seq.InitUniform(w)
	ws := euler.NewStepWorkspace(m.NV())
	for c := 0; c < 5; c++ {
		got, err := one.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		if want := seq.Step(w, nil, ws); got != want {
			t.Fatalf("step %d: norm %v on one processor, %v sequential", c, got, want)
		}
	}
	for i, st := range one.GatherSolution() {
		if st != w[i] {
			t.Fatalf("vertex %d differs from the sequential engine under GlobalDt", i)
		}
	}
}
