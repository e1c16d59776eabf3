package smsolver

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/geom"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/multigrid"
	"eul3d/internal/reorder"
)

// TestSmoothGatherBitwiseMatchesEdgeSweep pins the gather-form smoother to
// the edge form: on random fields over the layout's adjacency, NSmooth
// gather sweeps equal — bit for bit — the SmoothAccumSoAKernel sweep over
// the mesh's edge list followed by SmoothCombineSoAKernel, for 1–3 sweeps
// with averaging on and with eps = 0.
func TestSmoothGatherBitwiseMatchesEdgeSweep(t *testing.T) {
	m := testMesh(t)
	nv := m.NV()
	var lay layout
	if err := lay.fill(m, []span{{0, nv}}); err != nil {
		t.Fatal(err)
	}
	d := euler.NewDisc(m, euler.DefaultParams(0.675, 0))
	rng := rand.New(rand.NewSource(5))

	for _, eps := range []float64{0, 0.5, 1.3} {
		for sweeps := 1; sweeps <= 3; sweeps++ {
			rhs := euler.NewStateSoA(nv)
			for k := 0; k < euler.NVar; k++ {
				for i := range *rhs {
					(*rhs)[i][k] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
				}
			}
			(*rhs)[3][0] = math.Copysign(0, -1) // a sum that starts from -0 must still start from +0

			// Edge form: zero, accumulate over the edge list, combine,
			// ping-pong.
			cur, next := euler.NewStateSoA(nv), euler.NewStateSoA(nv)
			copy(*cur, *rhs)
			for s := 0; s < sweeps; s++ {
				next.ZeroRange(0, nv)
				d.SmoothAccumSoAKernel(cur, next, lay.edges)
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
				a, b := (*cur)[i], (*got)[i]
				for k := range a {
					if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
						t.Fatalf("eps=%g sweeps=%d: vertex %d comp %d: %v (edge form) vs %v (gather)", eps, sweeps, i, k, a[k], b[k])
					}
				}
			}
		}
	}
}

// TestNewMatchesSequentialOnView holds the bitwise contract at every worker
// count: New(m) runs over m itself (Solver.D.M), whose stored edge order is
// the order every vertex accumulates in, so it equals the sequential
// solver on it.
func TestNewMatchesSequentialOnView(t *testing.T) {
	m := testMesh(t)
	p := euler.DefaultParams(0.675, 0)
	const steps = 6
	for _, nw := range []int{1, 2, 8} {
		s, err := New(m, p, nw)
		if err != nil {
			t.Fatal(err)
		}
		if s.D.M != m {
			t.Fatalf("nw=%d: the engine runs on a copy of its mesh", nw)
		}
		seqNorms, wSeq := sequentialSteps(s.D.M, p, nil, steps)
		w := make([]euler.State, m.NV())
		s.InitUniform(w)
		for c := 0; c < steps; c++ {
			if n := s.Step(w, nil); n != seqNorms[c] {
				t.Fatalf("nw=%d step %d: norm %v, sequential %v", nw, c, n, seqNorms[c])
			}
		}
		s.Close()
		for i := range w {
			if w[i] != wSeq[i] {
				t.Fatalf("nw=%d: vertex %d: %v, sequential %v", nw, i, w[i], wSeq[i])
			}
		}
	}
}

// sequentialSteps runs steps of euler.Disc.Step on m from init (nil: the
// freestream) and returns the norms and the final state.
func sequentialSteps(m *mesh.Mesh, p euler.Params, init []euler.State, steps int) ([]float64, []euler.State) {
	d := euler.NewDisc(m, p)
	ws := euler.NewStepWorkspace(m.NV())
	w := make([]euler.State, m.NV())
	if init != nil {
		copy(w, init)
	} else {
		d.InitUniform(w)
	}
	norms := make([]float64, steps)
	for c := range norms {
		norms[c] = d.Step(w, nil, ws)
	}
	return norms, w
}

// Residual histories of the 12x6x4 seed-17 channel at Mach 0.675, recorded
// from euler.Disc.Step and multigrid.Solver on the generated meshes when the
// pooled engine moved from a block-colored copy of each mesh to
// owner-computes sweeps in the mesh's own order (its accumulation order
// became the sequential engine's). What makes the words trustworthy is
// checked beside them: each equals the sequential engine's. Anything that
// changes where data sits or how a sweep is divided among workers, and not
// an accumulation order, must leave them alone.
var (
	goldenSingle = [12]uint64{
		0x3fc775b5f73eb25d, 0x3fbf1e83be0653fd, 0x3fb372b3f2cc7478, 0x3fb033e3b2094e59,
		0x3fb1fc938f83062b, 0x3fb1ad556515e2d0, 0x3faed0cfc183d033, 0x3fae86efc3e4f1e7,
		0x3faec78f2cc4be94, 0x3fae85076f3c1686, 0x3faba68afa7d7265, 0x3fa98815652e4047,
	}
	goldenW3 = [12]uint64{
		0x3fc775b5f73eb25d, 0x3fbf3251af17f150, 0x3fb48ce77c4b858b, 0x3fb4db03724cadfd,
		0x3fb0bbb7881eb884, 0x3fa89cce3867d48e, 0x3fa9b20a00094f64, 0x3facad2cfc6e7799,
		0x3fa9706599b2efbb, 0x3fa51b8fb17c0ec0, 0x3fa36185fcdd0dfd, 0x3fa22c8c16c20c4c,
	}
)

func TestGoldenHistoryUnchanged(t *testing.T) {
	spec := meshgen.DefaultChannel(12, 6, 4, 17)
	p := euler.DefaultParams(0.675, 0)
	for _, nw := range []int{1, 2, 8} {
		m, err := meshgen.Channel(spec)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(m, p, nw)
		if err != nil {
			t.Fatal(err)
		}
		d := euler.NewDisc(m, p)
		ws := euler.NewStepWorkspace(m.NV())
		w, wSeq := make([]euler.State, m.NV()), make([]euler.State, m.NV())
		s.InitUniform(w)
		d.InitUniform(wSeq)
		for c, want := range goldenSingle {
			got, seq := math.Float64bits(s.Step(w, nil)), math.Float64bits(d.Step(wSeq, nil, ws))
			if got != want || got != seq {
				t.Fatalf("single grid, nw=%d step %d: norm bits %#x, golden %#x, sequential %#x", nw, c, got, want, seq)
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
		ref, err := multigrid.New(seq, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		for c, want := range goldenW3 {
			got, seq := math.Float64bits(mg.Cycle()), math.Float64bits(ref.Cycle())
			if got != want || got != seq {
				t.Fatalf("3-level W, nw=%d cycle %d: norm bits %#x, golden %#x, sequential %#x", nw, c, got, want, seq)
			}
		}
		mg.Close()
	}
}

// checkLayout verifies, from the outside, the layout that nw workers get
// on m: worker w's edge and face lists are ascending and hold exactly the
// elements with a vertex in w's span, so every element is listed once per
// worker owning one of its vertices; and the adjacency rows list each
// vertex's neighbours in the mesh's edge order.
func checkLayout(t *testing.T, m *mesh.Mesh, nw int) {
	t.Helper()
	le, err := newLevelEngine(m, euler.DefaultParams(0.675, 0), nw)
	if err != nil {
		t.Fatal(err)
	}
	lay, own := &le.lay, le.vertSpans[:le.vertActive]
	at := 0
	for w, sp := range own {
		if sp.lo != at || sp.hi < sp.lo {
			t.Fatalf("nw=%d: worker %d owns %v after %d", nw, w, sp, at)
		}
		at = sp.hi
	}
	if at != m.NV() {
		t.Fatalf("nw=%d: the spans end at %d of %d vertices", nw, at, m.NV())
	}
	check := func(kind string, start, list []int32, n int, verts func(int) []int32) {
		if len(start) != len(own)+1 || start[0] != 0 || int(start[len(own)]) != len(list) {
			t.Fatalf("nw=%d %s: start table %v over %d entries", nw, kind, start, len(list))
		}
		for w, sp := range own {
			var want []int32
			for i := 0; i < n; i++ {
				if slices.ContainsFunc(verts(i), func(v int32) bool { return sp.lo <= int(v) && int(v) < sp.hi }) {
					want = append(want, int32(i))
				}
			}
			if got := list[start[w]:start[w+1]]; !slices.Equal(got, want) {
				t.Fatalf("nw=%d %s: worker %d lists %d elements, %d touch its span %v", nw, kind, w, len(got), len(want), sp)
			}
		}
	}
	check("edges", lay.edgeStart, lay.edges, m.NE(), func(e int) []int32 { return m.Edges[e][:] })
	check("faces", lay.faceStart, lay.faces, len(m.BFaces), func(f int) []int32 { return m.BFaces[f].V[:] })

	rows := make([][]int32, m.NV())
	for _, e := range m.Edges {
		rows[e[0]] = append(rows[e[0]], e[1])
		rows[e[1]] = append(rows[e[1]], e[0])
	}
	for i, row := range rows {
		if got := lay.adj[lay.adjStart[i]:lay.adjStart[i+1]]; !slices.Equal(got, row) {
			t.Fatalf("vertex %d: adjacency row %v, edge order %v", i, got, row)
		}
	}
}

// TestLayoutStructure checks the layout of the meshes the engine meets —
// the generated channel, a selectively refined one (an adaptive epoch's), a
// 3-level sequence's coarse levels and a scrambled mesh — at worker counts
// that leave one owner, cut the vertices evenly and unevenly, and wake
// fewer workers than asked.
func TestLayoutStructure(t *testing.T) {
	_, r, _ := refinedCase(t, euler.DefaultParams(0.5, 0))
	scr, err := reorder.Scramble(testMesh(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	meshes := append(testSequence(t, 3), r.Mesh, scr)
	for _, m := range meshes {
		for _, nw := range []int{1, 2, 3, 8} {
			checkLayout(t, m, nw)
		}
	}
}

// starMesh is one hub joined to n spokes and nothing else: no tetrahedra,
// no boundary, every edge's normal pointing out along its spoke. It is a
// flow mesh only in the data structure's sense, which is all the sweeps
// read, and the worst case for ownership — every edge touches the hub's
// owner.
func starMesh(n int) *mesh.Mesh {
	m := &mesh.Mesh{X: make([]geom.Vec3, n+1), Vol: make([]float64, n+1)}
	m.Vol[0] = 1
	for i := 1; i <= n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		m.X[i] = geom.Vec3{X: math.Cos(a), Y: math.Sin(a)}
		m.Vol[i] = 0.01
		m.Edges = append(m.Edges, [2]int32{0, int32(i)})
		m.EdgeNorm = append(m.EdgeNorm, geom.Vec3{X: 1e-3 * math.Cos(a), Y: 1e-3 * math.Sin(a), Z: 1e-4})
	}
	return m
}

// pooledIsSequential steps New(m, p, W) at W = 1, 2, 3 and 8 from init (a
// uniform state when nil) and holds every residual norm and the final
// state bitwise to euler.Disc.Step on m.
func pooledIsSequential(t *testing.T, name string, m *mesh.Mesh, p euler.Params, init []euler.State) {
	t.Helper()
	const steps = 4
	norms, want := sequentialSteps(m, p, init, steps)
	for _, nw := range []int{1, 2, 3, 8} {
		s, err := New(m, p, nw)
		if err != nil {
			t.Fatal(err)
		}
		w := make([]euler.State, m.NV())
		if init != nil {
			copy(w, init)
		} else {
			s.InitUniform(w)
		}
		for c := 0; c < steps; c++ {
			n := s.Step(w, nil)
			if math.IsNaN(n) || n == 0 {
				t.Fatalf("%s nw=%d step %d: degenerate norm %v", name, nw, c, n)
			}
			if math.Float64bits(n) != math.Float64bits(norms[c]) {
				t.Fatalf("%s nw=%d step %d: norm %v, euler.Disc.Step %v", name, nw, c, n, norms[c])
			}
		}
		s.Close()
		for i := range w {
			if w[i] != want[i] {
				t.Fatalf("%s nw=%d: vertex %d %v, euler.Disc.Step %v", name, nw, i, w[i], want[i])
			}
		}
	}
}

// TestScrambledMeshFallsBack: a mesh whose vertices and tetrahedra arrive
// in arbitrary order has no locality for the workers' vertex ranges to
// follow, so about half its edges are cut and each worker's list falls
// back to most of the mesh. The lists must still be exactly the elements
// touching each span, and New(m, p, W) must still step bitwise as
// euler.Disc.Step on the scrambled mesh itself at W = 1, 2, 3 and 8.
func TestScrambledMeshFallsBack(t *testing.T) {
	p := euler.DefaultParams(0.675, 0)
	scr, err := reorder.Scramble(testMesh(t), 7)
	if err != nil {
		t.Fatal(err)
	}
	le, err := newLevelEngine(scr, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c := cutShare(le); c < 0.3 {
		t.Errorf("scrambled mesh: %.1f%% of the edges cut at two workers — the mesh kept its locality", 100*c)
	}
	checkLayout(t, scr, 2)
	pooledIsSequential(t, "scrambled", scr, p, nil)
}

// TestStarNeedsMoreGroupsThanABitmaskHolds: one hub, 3,000 spokes. A
// coloring needs a group per spoke, far past the 64 a vertex's bitmask
// holds; ownership needs none — the hub's worker computes every edge and
// each spoke's owner its own. The step is bitwise euler.Disc.Step at W = 1,
// 2, 3 and 8, from a state whose hub is out of equilibrium so that every
// spoke sees a flux.
func TestStarNeedsMoreGroupsThanABitmaskHolds(t *testing.T) {
	p := euler.DefaultParams(0.675, 0)
	star := starMesh(3000)
	free := make([]euler.State, star.NV())
	euler.NewDisc(star, p).InitUniform(free)
	free[0][4] *= 1.01
	for _, nw := range []int{2, 8} {
		checkLayout(t, star, nw)
	}
	pooledIsSequential(t, "star", star, p, free)
}

// TestPooledIsSequentialBitwise is the engine's contract: New(m, p, W)
// steps bitwise as euler.Disc.Step on the generated channel at W = 1, 2, 3
// and 8, in residual histories and states (the scrambled mesh and the star
// have tests of their own); and the 4-level NewMultigrid cycles bitwise as
// multigrid.Solver on the generated sequence, every level's state included.
func TestPooledIsSequentialBitwise(t *testing.T) {
	p := euler.DefaultParams(0.675, 0)
	pooledIsSequential(t, "channel", testMesh(t), p, nil)

	seq, err := meshgen.Sequence(meshgen.DefaultChannel(16, 8, 8, 17), 4)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := multigrid.New(seq, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := NewMultigrid(seq, p, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()
	for c := 0; c < 3; c++ {
		if got, want := mg.Cycle(), ref.Cycle(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("4-level W cycle %d: norm %v, multigrid.Solver %v", c, got, want)
		}
		for l, lev := range mg.levels {
			for i, w := range ref.Levels[l].W {
				if lev.W[i] != w {
					t.Fatalf("after cycle %d: level %d vertex %d: %v, multigrid.Solver %v", c, l, i, lev.W[i], w)
				}
			}
		}
	}
}

// TestRCMRestoresLocality: on a scrambled mesh two workers' vertex ranges
// split about half the edges, each computed by both; RCM renumbering must
// bring that down to a few percent, as on the generated order. New vertex
// numbers alone would leave the tetrahedra, and so Finish's edge order,
// scrambled; the element sort is what keeps each worker's edges local.
func TestRCMRestoresLocality(t *testing.T) {
	nat, err := meshgen.Channel(meshgen.DefaultChannel(32, 16, 10, 17))
	if err != nil {
		t.Fatal(err)
	}
	scr, err := reorder.Scramble(nat, 3)
	if err != nil {
		t.Fatal(err)
	}
	rcm, err := reorder.RCMMesh(scr)
	if err != nil {
		t.Fatal(err)
	}
	p := euler.DefaultParams(0.675, 0)
	cut := func(m *mesh.Mesh) float64 {
		le, err := newLevelEngine(m, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		return cutShare(le)
	}
	cn, cs, cr := cut(nat), cut(scr), cut(rcm)
	t.Logf("edges cut at two workers: generated %.1f%%, scrambled %.1f%%, scrambled then RCM %.1f%%", 100*cn, 100*cs, 100*cr)
	if cs < 0.3 {
		t.Errorf("scrambled mesh: %.1f%% of the edges cut — the mesh kept its locality", 100*cs)
	}
	if cr > cn {
		t.Errorf("scrambled then RCM-renumbered mesh: %.1f%% of the edges cut, the generated order %.1f%%", 100*cr, 100*cn)
	}
}
