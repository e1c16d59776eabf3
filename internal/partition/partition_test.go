package partition

import (
	"math"
	"math/rand"
	"testing"

	"eul3d/internal/graph"
	"eul3d/internal/meshgen"
)

func meshGraph(t *testing.T, nx, ny, nz int) (*graph.CSR, [][2]int32, []int, interface{}) {
	t.Helper()
	m, err := meshgen.Channel(meshgen.DefaultChannel(nx, ny, nz, 7))
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(m.NV(), m.Edges)
	if err != nil {
		t.Fatal(err)
	}
	return g, m.Edges, nil, nil
}

func checkPartition(t testing.TB, part []int32, nparts int) {
	t.Helper()
	sizes := make([]int, nparts)
	for v, p := range part {
		if p < 0 || int(p) >= nparts {
			t.Fatalf("vertex %d: part %d out of range", v, p)
		}
		sizes[p]++
	}
	for p, s := range sizes {
		if s == 0 {
			t.Fatalf("part %d is empty", p)
		}
	}
}

func TestPartitionMethods(t *testing.T) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(10, 8, 6, 7))
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(m.NV(), m.Edges)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []Method{Spectral, Inertial, BFSGreedy} {
		for _, np := range []int{2, 4, 7, 8} {
			part, err := Partition(g, m.X, np, method, 1)
			if err != nil {
				t.Fatalf("%v/%d: %v", method, np, err)
			}
			checkPartition(t, part, np)
			q := Evaluate(part, m.Edges, np)
			if q.Imbalance > 0.05 {
				t.Errorf("%v/%d: imbalance %.3f too high", method, np, q.Imbalance)
			}
			t.Logf("%v np=%d: %v", method, np, q)
		}
	}
}

func TestSpectralBeatsGreedyOnCut(t *testing.T) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(12, 8, 6, 7))
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(m.NV(), m.Edges)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Partition(g, m.X, 8, Spectral, 1)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := Partition(g, nil, 8, BFSGreedy, 1)
	if err != nil {
		t.Fatal(err)
	}
	qs := Evaluate(sp, m.Edges, 8)
	qg := Evaluate(gr, m.Edges, 8)
	t.Logf("spectral: %v", qs)
	t.Logf("greedy:   %v", qg)
	if qs.EdgeCut >= qg.EdgeCut {
		t.Errorf("spectral cut %d not better than greedy %d", qs.EdgeCut, qg.EdgeCut)
	}
}

func TestSpectralBisectionOnBar(t *testing.T) {
	// A long bar must be cut across its short dimension; the minimal cut
	// for a 16x2x2 vertex bar is about 2*3*3=9..12 edges under any sane
	// Fiedler split.
	spec := meshgen.DefaultChannel(15, 2, 2, 3)
	spec.Jitter = 0
	spec.BumpHeight = 0
	m, err := meshgen.Channel(spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(m.NV(), m.Edges)
	if err != nil {
		t.Fatal(err)
	}
	part, err := Partition(g, m.X, 2, Spectral, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := Evaluate(part, m.Edges, 2)
	// A straight cross-section cut of this bar severs well under 10% of
	// edges; an axial cut would sever ~40%.
	if q.CutFraction > 0.12 {
		t.Errorf("spectral cut fraction %.3f: did not cut across the bar", q.CutFraction)
	}
}

func TestFiedlerMatchesPathEigenvector(t *testing.T) {
	// The Fiedler vector of a path is cos(pi*(i+1/2)/n): monotone along
	// the path. Check monotonicity (up to global sign).
	n := 24
	edges := make([][2]int32, n-1)
	for i := range edges {
		edges[i] = [2]int32{int32(i), int32(i + 1)}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	verts := make([]int32, n)
	for i := range verts {
		verts[i] = int32(i)
	}
	s := induced(g, verts, newLocal(n))
	f, err := s.fiedler(rand.New(rand.NewSource(2)), 40)
	if err != nil {
		t.Fatal(err)
	}
	sign := 1.0
	if f[0] > f[n-1] {
		sign = -1
	}
	for i := 0; i < n-1; i++ {
		if sign*f[i] > sign*f[i+1]+1e-8 {
			t.Fatalf("fiedler not monotone on path at %d: %v", i, f)
		}
	}
}

func TestTridiagEigenKnown(t *testing.T) {
	// Eigenvalues of tridiag(-1, 2, -1) of size n are 2-2cos(k*pi/(n+1)).
	n := 8
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = 2
	}
	for i := range e {
		e[i] = -1
	}
	evals, evecs := tridiagEigen(d, e)
	want := make([]float64, n)
	for k := 1; k <= n; k++ {
		want[k-1] = 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1))
	}
	// Sort both.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if evals[j] < evals[i] {
				evals[i], evals[j] = evals[j], evals[i]
			}
			if want[j] < want[i] {
				want[i], want[j] = want[j], want[i]
			}
		}
	}
	for i := range evals {
		if math.Abs(evals[i]-want[i]) > 1e-9 {
			t.Errorf("eig %d = %v, want %v", i, evals[i], want[i])
		}
	}
	// Eigenvector columns must be unit length.
	for j := 0; j < n; j++ {
		s := 0.0
		for i := 0; i < n; i++ {
			s += evecs[i][j] * evecs[i][j]
		}
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("eigenvector %d norm^2 = %v", j, s)
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	g, _, _, _ := meshGraph(t, 4, 3, 3)
	if _, err := Partition(g, nil, 0, Spectral, 1); err == nil {
		t.Error("accepted nparts=0")
	}
	if _, err := Partition(g, nil, g.N()+1, Spectral, 1); err == nil {
		t.Error("accepted nparts > n")
	}
	if _, err := Partition(g, nil, 2, Inertial, 1); err == nil {
		t.Error("inertial accepted nil coords")
	}
	part, err := Partition(g, nil, 1, Spectral, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range part {
		if p != 0 {
			t.Fatal("nparts=1 should assign everything to part 0")
		}
	}
}

func TestPartitionDisconnected(t *testing.T) {
	// Two disjoint triangles: spectral must fall back gracefully.
	edges := [][2]int32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}}
	g, err := graph.FromEdges(6, edges)
	if err != nil {
		t.Fatal(err)
	}
	part, err := Partition(g, nil, 2, Spectral, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, part, 2)
	q := Evaluate(part, edges, 2)
	if q.EdgeCut != 0 {
		t.Errorf("disconnected graph split with cut %d, want 0", q.EdgeCut)
	}
}

func TestPartitionDeterministic(t *testing.T) {
	g, edges, _, _ := meshGraph(t, 8, 6, 4)
	a, err := Partition(g, nil, 8, Spectral, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(g, nil, 8, Spectral, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different partitions")
		}
	}
	_ = edges
}

func TestMethodString(t *testing.T) {
	if Spectral.String() != "spectral" || Inertial.String() != "inertial" ||
		BFSGreedy.String() != "bfs-greedy" {
		t.Error("method names")
	}
	if Method(9).String() == "" {
		t.Error("unknown method string empty")
	}
}

func TestEvaluateEmpty(t *testing.T) {
	q := Evaluate(nil, nil, 1)
	if q.EdgeCut != 0 || q.BoundaryVerts != 0 {
		t.Errorf("empty quality: %+v", q)
	}
}
