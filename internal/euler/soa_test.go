package euler

import (
	"math"
	"testing"

	"eul3d/internal/color"
)

// TestStateSoARoundTrip checks the block's surface: a block is a []State
// in all but name — Block views an array without copying, and a block's
// records are the array's — Resize keeps capacity it has, and ZeroRange
// clears exactly its range.
func TestStateSoARoundTrip(t *testing.T) {
	_, w := kernelFixture(t)
	n := len(w)

	s := NewStateSoA(n)
	if s.Len() != n {
		t.Fatalf("Len() = %d, want %d", s.Len(), n)
	}
	copy(*s, w)
	for i := range w {
		if (*s)[i] != w[i] {
			t.Fatalf("vertex %d = %v, want %v", i, (*s)[i], w[i])
		}
	}

	view := Block(&w)
	if view.Len() != n || &(*view)[0] != &w[0] {
		t.Fatal("Block copied the array instead of viewing it")
	}
	mod := State{1, 2, 3, 4, 5}
	(*view)[7] = mod
	if w[7] != mod {
		t.Fatalf("a write through the view left w[7] = %v", w[7])
	}
	w = append(w[:0:0], w...)
	if &(*view)[0] != &w[0] {
		t.Fatal("the view does not follow its array when it is reassigned")
	}

	at := &(*s)[0]
	s.Resize(n / 2)
	if s.Len() != n/2 || &(*s)[0] != at {
		t.Fatal("Resize within capacity reallocated")
	}
	s.Resize(n)

	s.ZeroRange(2, 5)
	for i := 2; i < 5; i++ {
		if (*s)[i] != (State{}) {
			t.Fatalf("ZeroRange left vertex %d = %v", i, (*s)[i])
		}
	}
	if (*s)[1] == (State{}) || (*s)[5] == (State{}) {
		t.Fatal("ZeroRange cleared outside its range")
	}
}

// soaStepper advances a solution through the SoA kernels, driven inline
// over the identity edge and face lists, and after every kernel compares
// what it produced — bitwise — with the reference operator run by ref's
// Disc methods on the same stage state.
type soaStepper struct {
	t            *testing.T
	d, ref       *Disc
	edges, faces []int32

	wS, w0S, convS, dissS, laplS, resS, smoothS, rhsS *StateSoA
	wq, convR, dissR, resR                            []State

	// The gather form of the smoother: the mesh's rows in edge order and the
	// right-hand side and iterates SmoothGatherSoAKernel sweeps.
	adjStart, adj    []int32
	gRHS, gCur, gNxt []State
}

func newSoAStepper(t *testing.T, d *Disc) *soaStepper {
	nv := d.M.NV()
	soa := func() *StateSoA { return NewStateSoA(nv) }
	aos := func() []State { return make([]State, nv) }
	s := &soaStepper{
		t: t, d: d, ref: NewDisc(d.M, d.P),
		edges: identity(d.M.NE()), faces: identity(len(d.M.BFaces)),
		wS: soa(), w0S: soa(), convS: soa(), dissS: soa(), laplS: soa(), resS: soa(), smoothS: soa(), rhsS: soa(),
		wq: aos(), convR: aos(), dissR: aos(), resR: aos(),
		gRHS: aos(), gCur: aos(), gNxt: aos(),
	}
	s.adjStart, s.adj = rowsInEdgeOrder(nv, d.M.Edges)
	return s
}

func (s *soaStepper) sameF(name string, ref, soa []float64) {
	s.t.Helper()
	for i := range ref {
		if ref[i] != soa[i] {
			s.t.Fatalf("%s: vertex %d: %v (reference) vs %v (SoA)", name, i, ref[i], soa[i])
		}
	}
}

func (s *soaStepper) sameS(name string, ref []State, soa *StateSoA) {
	s.t.Helper()
	for i := range ref {
		if got := (*soa)[i]; ref[i] != got {
			s.t.Fatalf("%s: vertex %d: %v (reference) vs %v (SoA)", name, i, ref[i], got)
		}
	}
}

// step is one multistage time step, one part of the scheme per kernel call
// (the pooled engine fuses the first-pass parts into one sweep;
// checkFusedSweeps pins that against these calls); it returns the
// first-stage residual norm.
func (s *soaStepper) step(w, forcing []State) float64 {
	d, ref := s.d, s.ref
	nv := d.M.NV()

	d.StepInitSoAKernel(w, s.wS, s.w0S, 0, nv)
	ref.computePressures(w)
	s.sameS("init w", w, s.wS)
	s.sameS("init w0", w, s.w0S)
	s.sameF("init pres", ref.pres, d.pres)
	if d.P.GlobalDt <= 0 {
		d.LambdaEdgesSoAKernel(s.wS, d.Lam(), s.edges)
		d.LambdaBFacesSoAKernel(s.wS, d.Lam(), s.faces)
	}
	d.DtRangeKernel(d.Lam(), 0, nv)
	ref.ComputeTimeSteps(w)
	s.sameF("time steps", ref.Dt, d.Dt)
	d.StageZeroSoAKernel(s.convS, s.dissS, s.laplS, true, 0, nv)

	norm := 0.0
	for q, alpha := range d.P.Stages {
		copy(s.wq, *s.wS)
		ref.computePressures(s.wq)
		s.sameF("stage pres", ref.pres, d.pres)

		d.ConvectiveEdgesSoAKernel(s.wS, s.convS, s.edges)
		d.BoundaryFluxSoAKernel(s.wS, s.convS, s.faces)
		ref.Convective(s.wq, s.convR)
		s.sameS("convective", s.convR, s.convS)

		if q < DissipStages {
			d.DissPass1SoAKernel(s.wS, s.laplS, d.Sensor(), d.Den(), s.edges)
			d.NuRangeKernel(d.Sensor(), d.Den(), 0, nv)
			d.DissPass2SoAKernel(s.wS, s.laplS, s.dissS, d.Sensor(), s.edges)
			ref.Dissipation(s.wq, s.dissR)
			s.sameS("laplacian", ref.lapl, s.laplS)
			s.sameF("shock switch", ref.sensor, d.sensor)
			s.sameS("dissipation", s.dissR, s.dissS)
		}

		d.CombineResidualSoAKernel(s.resS, s.convS, s.dissS, forcing, 0, nv)
		CombineResidual(s.resR, s.convR, s.dissR, forcing)
		s.sameS("residual", s.resR, s.resS)
		if q == 0 {
			norm = math.Sqrt(ResidualNormSq(*s.resS, d.M.Vol, nv) / float64(nv))
		}

		if eps := d.P.EpsSmooth; eps != 0 && d.P.NSmooth != 0 {
			copy(*s.rhsS, *s.resS)
			cur, next := s.resS, s.smoothS
			for sweep := 0; sweep < d.P.NSmooth; sweep++ {
				next.ZeroRange(0, nv)
				d.SmoothAccumSoAKernel(cur, next, s.edges)
				d.SmoothCombineSoAKernel(s.rhsS, next, eps, 0, nv)
				cur, next = next, cur
			}
			if cur != s.resS {
				copy(*s.resS, *cur)
			}
		}
		// The gather form on the same unsmoothed residual: no zeroing, one
		// pass a sweep.
		copy(s.gRHS, s.resR)
		gCur, gNxt := s.gCur, s.gNxt
		copy(gCur, s.resR)
		if eps := d.P.EpsSmooth; eps != 0 {
			for sweep := 0; sweep < d.P.NSmooth; sweep++ {
				SmoothGatherSoAKernel(Block(&s.gRHS), Block(&gCur), Block(&gNxt), s.adjStart, s.adj, eps, 0, nv)
				gCur, gNxt = gNxt, gCur
			}
		}
		ref.SmoothResiduals(s.resR)
		s.sameS("smoothing", s.resR, s.resS)
		for i := range s.resR {
			if s.resR[i] != gCur[i] {
				s.t.Fatalf("smoothing, gather form: vertex %d: %v (reference) vs %v", i, s.resR[i], gCur[i])
			}
		}

		if q == len(d.P.Stages)-1 {
			d.UpdateFinalSoAKernel(w, s.w0S, s.resS, alpha, 0, nv)
		} else {
			d.UpdateNextSoAKernel(s.wS, s.w0S, s.resS, alpha, 0, nv)
			d.StageZeroSoAKernel(s.convS, s.dissS, s.laplS, q+1 < DissipStages, 0, nv)
		}
	}
	return norm
}

// checkFusedSweeps pins the fusion the pooled engine relies on: one edge
// sweep with every part selected, and one face sweep with both of its parts,
// leave in lam, convS, laplS, num and den exactly the bits the one-part
// kernels leave, over the identity lists and over greedy color orders (which
// are not the identity — the order cmd/bench and the engine's source-mesh
// colorings drive the kernels in). Split between two owners of vertex
// ranges, each sweeping the whole list, the sweeps and dissipation pass 2
// leave those bits too: the ownership range guards stores, not arithmetic.
// The vertex terms are refreshed from w by StepInitSoAKernel alone, as in a
// step.
func checkFusedSweeps(t *testing.T, d *Disc, w []State) {
	t.Helper()
	m := d.M
	nv := m.NV()
	ec, err := color.Greedy(nv, m.Edges)
	if err != nil {
		t.Fatal(err)
	}
	faces := make([][3]int32, len(m.BFaces))
	for i := range m.BFaces {
		faces[i] = m.BFaces[i].V
	}
	fc, err := color.GreedyFaces(nv, faces)
	if err != nil {
		t.Fatal(err)
	}
	wS, w0S := NewStateSoA(nv), NewStateSoA(nv)
	d.StepInitSoAKernel(w, wS, w0S, 0, nv)

	type sums struct {
		convS, laplS  *StateSoA
		lam, num, den []float64
	}
	fresh := func() sums {
		return sums{NewStateSoA(nv), NewStateSoA(nv), make([]float64, nv), make([]float64, nv), make([]float64, nv)}
	}
	for _, tc := range []struct {
		name         string
		edges, faces []int32
	}{
		{"identity", identity(m.NE()), identity(len(m.BFaces))},
		{"greedy-order", ec.Order, fc.Order},
	} {
		one, all := fresh(), fresh()
		d.LambdaEdgesSoAKernel(wS, one.lam, tc.edges)
		d.ConvectiveEdgesSoAKernel(wS, one.convS, tc.edges)
		d.DissPass1SoAKernel(wS, one.laplS, one.num, one.den, tc.edges)
		d.LambdaBFacesSoAKernel(wS, one.lam, tc.faces)
		d.BoundaryFluxSoAKernel(wS, one.convS, tc.faces)

		d.EdgeSweepSoAKernel(PartLam|PartConv|PartDiss1, wS, all.convS, all.laplS, all.lam, all.num, all.den, tc.edges, 0, nv)
		d.BFaceSweepSoAKernel(PartLam|PartConv, wS, all.convS, all.lam, tc.faces, 0, nv)

		split := fresh()
		owners := [2][2]int{{0, nv / 3}, {nv / 3, nv}}
		for _, o := range owners {
			d.EdgeSweepSoAKernel(PartLam|PartConv|PartDiss1, wS, split.convS, split.laplS, split.lam, split.num, split.den, tc.edges, o[0], o[1])
			d.BFaceSweepSoAKernel(PartLam|PartConv, wS, split.convS, split.lam, tc.faces, o[0], o[1])
		}
		oneDiss, splitDiss := NewStateSoA(nv), NewStateSoA(nv)
		d.DissPass2SoAKernel(wS, one.laplS, oneDiss, one.num, tc.edges)
		for _, o := range owners {
			d.Diss2SweepSoAKernel(wS, one.laplS, splitDiss, one.num, tc.edges, o[0], o[1])
		}

		for i := 0; i < nv; i++ {
			for _, other := range []struct {
				name string
				sums
			}{{"fused sweep", all}, {"split sweep", split}} {
				got := other.sums
				same := (*one.convS)[i] == (*got.convS)[i] && (*one.laplS)[i] == (*got.laplS)[i] &&
					one.lam[i] == got.lam[i] && one.num[i] == got.num[i] && one.den[i] == got.den[i]
				if !same {
					t.Fatalf("%s: vertex %d: %s differs from the one-part kernels:\n"+
						"conv %v vs %v\nlapl %v vs %v\nlam %v vs %v, num %v vs %v, den %v vs %v", tc.name, i, other.name,
						(*one.convS)[i], (*got.convS)[i], (*one.laplS)[i], (*got.laplS)[i],
						one.lam[i], got.lam[i], one.num[i], got.num[i], one.den[i], got.den[i])
				}
			}
			if (*oneDiss)[i] != (*splitDiss)[i] {
				t.Fatalf("%s: vertex %d: split pass 2 %v, whole %v", tc.name, i, (*splitDiss)[i], (*oneDiss)[i])
			}
		}
		if one.lam[0] == 0 || one.den[0] == 0 || (*one.convS)[0] == (State{}) {
			t.Fatalf("%s: the sweeps accumulated nothing at vertex 0", tc.name)
		}
	}
}

// TestSoAKernelsBitwiseMatchReference is the contract between the two
// statements of the scheme's arithmetic: every SoA kernel, run over the
// identity edge and face lists, must reproduce the reference operator —
// Disc.Convective, Dissipation, ComputeTimeSteps, SmoothResiduals (which the
// gather form SmoothGatherSoAKernel, over rows in edge order, must reproduce
// too)
// and, for the fused init/combine/update sweeps, a whole Disc.Step — bit for
// bit: the component streams change the memory layout, not one
// floating-point operation. The three cases cover the steady scheme, the FAS forcing term,
// and the time-accurate scheme (global dt, no averaging) with the convex
// limiter made to act; on the field each leaves behind, the fused sweeps are
// then held to the one-part kernels (checkFusedSweeps).
func TestSoAKernelsBitwiseMatchReference(t *testing.T) {
	const steps = 3
	for _, tc := range []struct {
		name    string
		forcing bool
		tune    func(d *Disc, w []State)
	}{
		{"steady", false, func(*Disc, []State) {}},
		{"forcing", true, func(*Disc, []State) {}},
		{"global-dt-limited", false, func(d *Disc, w []State) {
			p := &d.P
			p.GlobalDt, p.EpsSmooth, p.NSmooth = 0.8*MinStableDt(d.M, *p, w), 0, 0
			p.ConvexLimit, p.MinPressure = true, 0.7 // the fixture's lowest pressures sit on this floor
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, w := kernelFixture(t)
			tc.tune(d, w)
			nv := d.M.NV()
			var forcing []State
			if tc.forcing {
				forcing = make([]State, nv)
				for i := range forcing {
					forcing[i] = State{1e-3, -2e-3, 3e-3, -4e-3, 5e-3}
				}
			}

			seq := NewDisc(d.M, d.P)
			ws := NewStepWorkspace(nv)
			wSeq := append([]State(nil), w...)
			soa := newSoAStepper(t, d)
			for c := 0; c < steps; c++ {
				normSeq := seq.Step(wSeq, forcing, ws)
				if norm := soa.step(w, forcing); norm != normSeq {
					t.Fatalf("step %d: norm %v (SoA) vs %v (Disc.Step)", c, norm, normSeq)
				}
				for i := range w {
					if w[i] != wSeq[i] {
						t.Fatalf("step %d: vertex %d: %v (SoA) vs %v (Disc.Step)", c, i, w[i], wSeq[i])
					}
				}
			}

			// The standalone-residual preamble: load + pressures.
			wS := NewStateSoA(nv)
			d.ResInitSoAKernel(w, wS, 0, nv)
			seq.computePressures(w)
			soa.sameS("res-init w", w, wS)
			soa.sameF("res-init pres", seq.pres, d.pres)

			checkFusedSweeps(t, d, w)

			if d.P.ConvexLimit {
				// The limiter must have acted, or this case pins nothing the
				// steady one does not: the same run without floors differs.
				free := NewDisc(d.M, d.P)
				free.P.MinDensity, free.P.MinPressure = 0, 0
				_, wFree := kernelFixture(t)
				for c := 0; c < steps; c++ {
					free.Step(wFree, nil, ws)
				}
				same := true
				for i := range w {
					same = same && w[i] == wFree[i]
				}
				if same {
					t.Fatal("limiter never acted: floors too low for this field")
				}
			}
		})
	}
}
