package smsolver

import (
	"math"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/meshgen"
)

// poisonVertexTerms overwrites d's per-vertex pressures, 1/rho and sound
// speeds with NaN, through the one door this package has to them: the step
// preamble run on an all-NaN field into a throwaway block.
func poisonVertexTerms(d *euler.Disc) {
	nv := d.M.NV()
	bad := make([]euler.State, nv)
	for i := range bad {
		for k := range bad[i] {
			bad[i][k] = math.NaN()
		}
	}
	s := euler.NewStateSoA(nv)
	d.StepInitSoAKernel(bad, s, s, 0, nv)
}

// TestVertexTermsNeverStale: the edge and face sweeps read 1/rho and the
// sound speed from per-vertex arrays instead of deriving them per edge, so
// every path that writes the solution block must refresh them itself. Poison
// them before every Step, before every Cycle (all levels) and after a
// Rebuild: the histories and solutions must not move by a bit.
func TestVertexTermsNeverStale(t *testing.T) {
	p := euler.DefaultParams(0.675, 0)
	const steps = 4

	t.Run("poison-bites", func(t *testing.T) {
		m := testMesh(t)
		s, err := New(m, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		nv := m.NV()
		w := make([]euler.State, nv)
		s.InitUniform(w)
		poisonVertexTerms(s.D)
		lam := make([]float64, nv)
		s.D.LambdaEdgesSoAKernel(euler.Block(&w), lam, []int32{0})
		if e := s.D.M.Edges[0]; !math.IsNaN(lam[e[0]]) || !math.IsNaN(lam[e[1]]) {
			t.Fatal("poisoned vertex terms did not reach the edge sweep: the test has no teeth")
		}
	})

	t.Run("step", func(t *testing.T) {
		m := testMesh(t)
		run := func(poison bool) ([]float64, []euler.State) {
			s, err := New(m, p, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			w := make([]euler.State, m.NV())
			s.InitUniform(w)
			var norms []float64
			for c := 0; c < steps; c++ {
				if poison {
					poisonVertexTerms(s.D)
				}
				norms = append(norms, s.Step(w, nil))
			}
			return norms, w
		}
		nA, wA := run(false)
		nB, wB := run(true)
		for c := range nA {
			stepsBitwise(t, "poisoned vs clean step", wA, wB, nA[c], nB[c])
		}
	})

	t.Run("cycle", func(t *testing.T) {
		meshes, err := meshgen.Sequence(meshgen.DefaultChannel(12, 8, 6, 17), 3)
		if err != nil {
			t.Fatal(err)
		}
		run := func(poison bool) ([]float64, []euler.State) {
			mg, err := NewMultigrid(meshes, p, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer mg.Close()
			var norms []float64
			for c := 0; c < steps; c++ {
				if poison {
					for _, lev := range mg.levels {
						poisonVertexTerms(lev.eng.d)
					}
				}
				norms = append(norms, mg.Cycle())
			}
			return norms, mg.Fine().W
		}
		nA, wA := run(false)
		nB, wB := run(true)
		for c := range nA {
			stepsBitwise(t, "poisoned vs clean cycle", wA, wB, nA[c], nB[c])
		}
	})

	t.Run("rebuild", func(t *testing.T) {
		pr := euler.DefaultParams(0.5, 0)
		m0, r, w := refinedCase(t, pr)
		run := func(poison bool) ([]float64, []euler.State) {
			s, err := New(m0, pr, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			w0 := make([]euler.State, m0.NV())
			s.InitUniform(w0)
			s.Step(w0, nil) // the vertex terms hold the old mesh's values
			if err := s.Rebuild(r.Mesh, pr); err != nil {
				t.Fatal(err)
			}
			if poison {
				poisonVertexTerms(s.D)
			}
			wr := append([]euler.State(nil), w...)
			var norms []float64
			for c := 0; c < steps; c++ {
				norms = append(norms, s.Step(wr, nil))
			}
			return norms, wr
		}
		nA, wA := run(false)
		nB, wB := run(true)
		for c := range nA {
			stepsBitwise(t, "poisoned vs clean rebuild", wA, wB, nA[c], nB[c])
		}
	})
}

// TestStageScheduleCorners: the parts of each stage's sweep follow from
// q == 0 and q < euler.DissipStages, never from the five-stage scheme. The
// pooled engine must stay bitwise equal to the sequential one on its view
// for schemes with fewer stages than dissipation
// evaluations, exactly as many, and more — and in the time-accurate mode,
// where stage 0 drops the spectral radii but still owes the time steps.
func TestStageScheduleCorners(t *testing.T) {
	m := testMesh(t)
	nv := m.NV()
	for _, tc := range []struct {
		name     string
		stages   []float64
		globalDt bool
	}{
		{"1-stage", []float64{1}, false},
		{"2-stage", []float64{0.5, 1}, false},
		{"5-stage", nil, false},
		{"5-stage-global-dt", nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := euler.DefaultParams(0.675, 0)
			if tc.stages != nil {
				p.Stages = tc.stages
				p.CFL = 1 // a short scheme has no business at the 5-stage scheme's CFL
			}
			wSeq := make([]euler.State, nv)
			for i := range wSeq {
				wSeq[i] = p.Freestream
			}
			if tc.globalDt {
				p.GlobalDt, p.EpsSmooth, p.NSmooth = 0.8*euler.MinStableDt(m, p, wSeq), 0, 0
			}
			s, err := New(m, p, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			d := euler.NewDisc(s.D.M, p)
			ws := euler.NewStepWorkspace(nv)
			wPar := append([]euler.State(nil), wSeq...)
			for c := 0; c < 4; c++ {
				ns, np := d.Step(wSeq, nil, ws), s.Step(wPar, nil)
				if ns == 0 || math.IsNaN(ns) {
					t.Fatalf("step %d: degenerate norm %v", c, ns)
				}
				stepsBitwise(t, "sequential vs pooled", wSeq, wPar, ns, np)
			}
		})
	}
}
