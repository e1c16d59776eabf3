package smsolver

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/meshgen"
	"eul3d/internal/reorder"
)

// TestSmoothGatherBitwiseMatchesEdgeSweep pins the gather-form smoother to
// the edge form it replaced in the engine: on random fields over the
// greedy-colored layout, NSmooth gather sweeps over the adjacency equal —
// bit for bit — the colored SmoothAccumSoAKernel sweep over every color
// followed by SmoothCombineSoAKernel, for 1–3 sweeps with averaging on and
// with eps = 0.
func TestSmoothGatherBitwiseMatchesEdgeSweep(t *testing.T) {
	lay, err := layoutFor(testMesh(t), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	nv := lay.view.NV()
	d := euler.NewDisc(lay.view, euler.DefaultParams(0.675, 0))
	rng := rand.New(rand.NewSource(5))

	for _, eps := range []float64{0, 0.5, 1.3} {
		for sweeps := 1; sweeps <= 3; sweeps++ {
			rhs := euler.NewStateSoA(nv)
			for k := range rhs.Comp {
				for i := range rhs.Comp[k] {
					rhs.Comp[k][i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
				}
			}
			rhs.Comp[0][3] = math.Copysign(0, -1) // a sum that starts from -0 must still start from +0

			// Edge form, as the engine ran it: zero, accumulate color by
			// color, combine, ping-pong.
			cur, next := euler.NewStateSoA(nv), euler.NewStateSoA(nv)
			cur.CopyRange(rhs, 0, nv)
			for s := 0; s < sweeps; s++ {
				next.ZeroRange(0, nv)
				for g := 0; g < lay.edges.NumColors(); g++ {
					d.SmoothAccumSoAKernel(cur, next, lay.edges.Group(g))
				}
				d.SmoothCombineSoAKernel(rhs, next, eps, 0, nv)
				cur, next = next, cur
			}

			// Gather form, chunked unevenly as the pool would.
			got := rhs
			scratch := [2]*euler.StateSoA{euler.NewStateSoA(nv), euler.NewStateSoA(nv)}
			for s := 0; s < sweeps; s++ {
				out := scratch[s&1]
				cut := nv / 3
				euler.SmoothGatherSoAKernel(rhs, got, out, lay.adjStart, lay.adj, eps, cut, nv)
				euler.SmoothGatherSoAKernel(rhs, got, out, lay.adjStart, lay.adj, eps, 0, cut)
				got = out
			}

			for i := 0; i < nv; i++ {
				a, b := cur.At(i), got.At(i)
				for k := range a {
					if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
						t.Fatalf("eps=%g sweeps=%d: vertex %d comp %d: %v (edge form) vs %v (gather)", eps, sweeps, i, k, a[k], b[k])
					}
				}
			}
		}
	}
}

// TestLayoutSharedPerMesh checks the per-mesh memo: engines on one mesh
// run over one layout (same edge and adjacency arrays), engines on another
// mesh do not, and concurrent builders all get the one layout.
func TestLayoutSharedPerMesh(t *testing.T) {
	m := testMesh(t)
	p := euler.DefaultParams(0.675, 0)
	a, err := New(m, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(m, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if &a.D.M.Edges[0] != &b.D.M.Edges[0] || &a.le.lay.adj[0] != &b.le.lay.adj[0] {
		t.Fatal("two engines on one mesh do not share the layout")
	}
	if &a.D.M.Edges[0] == &m.Edges[0] {
		t.Fatal("the layout aliases the source mesh's edge list")
	}

	other, err := New(testMesh(t), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if &other.D.M.Edges[0] == &a.D.M.Edges[0] || &other.le.lay.adj[0] == &a.le.lay.adj[0] {
		t.Fatal("engines on different meshes share a layout")
	}

	fresh := testMesh(t)
	lays := make([]*layout, 8)
	var wg sync.WaitGroup
	for i := range lays {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := New(fresh, p, 1)
			if err != nil {
				t.Error(err)
				return
			}
			lays[i] = s.le.lay
			s.Close()
		}(i)
	}
	wg.Wait()
	for i, l := range lays {
		if l != lays[0] {
			t.Fatalf("concurrent New %d built its own layout", i)
		}
	}
}

// TestNewMatchesCanonicalAndSequential is the one-path contract: New(m) is
// NewColored over the mesh's color-canonical form, and on that form the
// colored order is the sequential order, so all three histories and
// solutions are bitwise equal at every worker count.
func TestNewMatchesCanonicalAndSequential(t *testing.T) {
	old := SerialCutoffEdges
	SerialCutoffEdges = 0
	defer func() { SerialCutoffEdges = old }()

	m := testMesh(t)
	p := euler.DefaultParams(0.675, 0)
	mc, ec, fc, err := reorder.ColorCanonical(m)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 6

	d := euler.NewDisc(mc, p)
	ws := euler.NewStepWorkspace(mc.NV())
	wSeq := make([]euler.State, mc.NV())
	d.InitUniform(wSeq)
	var seqNorms [steps]float64
	for c := range seqNorms {
		seqNorms[c] = d.Step(wSeq, nil, ws)
	}

	for _, nw := range []int{1, 2, 8} {
		plain, err := New(m, p, nw)
		if err != nil {
			t.Fatal(err)
		}
		colored, err := NewColored(mc, p, nw, ec, fc)
		if err != nil {
			t.Fatal(err)
		}
		wA := make([]euler.State, m.NV())
		wB := make([]euler.State, m.NV())
		plain.InitUniform(wA)
		colored.InitUniform(wB)
		for c := 0; c < steps; c++ {
			na, nb := plain.Step(wA, nil), colored.Step(wB, nil)
			if na != nb || na != seqNorms[c] {
				t.Fatalf("nw=%d step %d: norms %v (New) %v (NewColored canonical) %v (sequential)", nw, c, na, nb, seqNorms[c])
			}
		}
		plain.Close()
		colored.Close()
		for i := range wA {
			if wA[i] != wB[i] || wA[i] != wSeq[i] {
				t.Fatalf("nw=%d: vertex %d: %v (New) %v (NewColored canonical) %v (sequential)", nw, i, wA[i], wB[i], wSeq[i])
			}
		}
	}
}

// Residual histories of the 12x6x4 seed-17 channel at Mach 0.675 captured
// from the engine before it ran on the color-contiguous layout with the
// gather-form smoother (commit e2cb94c): the layout and the gather form
// change where data sits and how a sweep is cut into barriers, not one
// accumulation order, so the histories must not move by a bit.
var (
	goldenSingle = [12]uint64{
		0x3fc775b5f73eb25b, 0x3fbf1e83be0653f5, 0x3fb372b3f2cc747b, 0x3fb033e3b2094e55,
		0x3fb1fc938f83061d, 0x3fb1ad556515e2c7, 0x3faed0cfc183d019, 0x3fae86efc3e4f1c2,
		0x3faec78f2cc4be48, 0x3fae85076f3c1649, 0x3faba68afa7d722c, 0x3fa98815652e401e,
	}
	goldenW3 = [12]uint64{
		0x3fc775b5f73eb25b, 0x3fbf3251af17f139, 0x3fb48ce77c4b8594, 0x3fb4db03724cadfd,
		0x3fb0bbb7881eb884, 0x3fa89cce3867d47d, 0x3fa9b20a00094ee4, 0x3facad2cfc6e77a1,
		0x3fa9706599b2efd3, 0x3fa51b8fb17c0ec2, 0x3fa36185fcdd0dfe, 0x3fa22c8c16c20c5d,
	}
)

func TestGoldenHistoryUnchanged(t *testing.T) {
	spec := meshgen.DefaultChannel(12, 6, 4, 17)
	p := euler.DefaultParams(0.675, 0)
	for _, cutoff := range []int{0, SerialCutoffEdges} {
		withCutoff(t, cutoff, func() {
			for _, nw := range []int{1, 2, 8} {
				m, err := meshgen.Channel(spec)
				if err != nil {
					t.Fatal(err)
				}
				s, err := New(m, p, nw)
				if err != nil {
					t.Fatal(err)
				}
				w := make([]euler.State, m.NV())
				s.InitUniform(w)
				for c, want := range goldenSingle {
					if got := math.Float64bits(s.Step(w, nil)); got != want {
						t.Fatalf("single grid, cutoff=%d nw=%d step %d: norm bits %#x, golden %#x", cutoff, nw, c, got, want)
					}
				}
				s.Close()

				seq, err := meshgen.Sequence(spec, 3)
				if err != nil {
					t.Fatal(err)
				}
				mg, err := NewMultigrid(seq, p, 2, nw)
				if err != nil {
					t.Fatal(err)
				}
				for c, want := range goldenW3 {
					if got := math.Float64bits(mg.Cycle()); got != want {
						t.Fatalf("3-level W, cutoff=%d nw=%d cycle %d: norm bits %#x, golden %#x", cutoff, nw, c, got, want)
					}
				}
				mg.Close()
			}
		})
	}
}
