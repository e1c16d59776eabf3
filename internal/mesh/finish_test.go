package mesh_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"eul3d/internal/geom"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/meshio"
	"eul3d/internal/refine"
	"eul3d/internal/reorder"
)

// finishWithMap is the Go-map edge index Finish used to be built on, kept
// as the oracle of the chained index: edges numbered in first-encounter
// order over the tets, normals accumulated per edge in tet order. It is an
// external-package test because the refined and decoded cases import
// packages that import mesh.
func finishWithMap(m *mesh.Mesh) (edges [][2]int32, norms []geom.Vec3, vol []float64) {
	tetEdges := [6][4]int{
		{0, 1, 2, 3}, {0, 2, 3, 1}, {0, 3, 1, 2},
		{1, 2, 0, 3}, {1, 3, 2, 0}, {2, 3, 0, 1},
	}
	key := func(i, j int32) uint64 {
		if i > j {
			i, j = j, i
		}
		return uint64(uint32(i))<<32 | uint64(uint32(j))
	}
	index := make(map[uint64]int32)
	for _, tet := range m.Tets {
		for _, e := range tetEdges {
			k := key(tet[e[0]], tet[e[1]])
			if _, ok := index[k]; !ok {
				index[k] = int32(len(index))
			}
		}
	}
	edges = make([][2]int32, len(index))
	norms = make([]geom.Vec3, len(index))
	for k, id := range index {
		edges[id] = [2]int32{int32(k >> 32), int32(k & 0xffffffff)}
	}
	vol = make([]float64, m.NV())
	for _, tet := range m.Tets {
		xa, xb, xc, xd := m.X[tet[0]], m.X[tet[1]], m.X[tet[2]], m.X[tet[3]]
		q := geom.TetVolume(xa, xb, xc, xd) / 4
		for _, v := range tet {
			vol[v] += q
		}
		gt := geom.TetCentroid(xa, xb, xc, xd)
		for _, e := range tetEdges {
			a, b, c, d := tet[e[0]], tet[e[1]], tet[e[2]], tet[e[3]]
			pa, pb, pc, pd := m.X[a], m.X[b], m.X[c], m.X[d]
			mid := pa.Add(pb).Scale(0.5)
			g1 := geom.TriCentroid(pa, pb, pc)
			g2 := geom.TriCentroid(pa, pb, pd)
			n := geom.TriAreaNormal(mid, g1, gt).Add(geom.TriAreaNormal(mid, gt, g2))
			if a > b {
				n = n.Scale(-1)
			}
			id := index[key(a, b)]
			norms[id] = norms[id].Add(n)
		}
	}
	return edges, norms, vol
}

// TestFinishMatchesMapOracle requires the edge numbering, the per-edge
// normal sums and the control volumes of Finish to equal the map-indexed
// construction bit for bit, on generated, jittered, selectively refined
// and decoded meshes below the pipeline's threshold and on a channel and a
// scrambled channel above it, at GOMAXPROCS 1 (inline), 2 and 3 (the
// pipeline, on one worker fewer than its bound and one more).
func TestFinishMatchesMapOracle(t *testing.T) {
	plain := meshgen.DefaultChannel(9, 5, 4, 3)
	plain.Jitter = 0
	cases := map[string]*mesh.Mesh{}
	var err error
	if cases["channel"], err = meshgen.Channel(plain); err != nil {
		t.Fatal(err)
	}
	if cases["jittered"], err = meshgen.Channel(meshgen.DefaultChannel(12, 6, 4, 17)); err != nil {
		t.Fatal(err)
	}
	marked := make([]bool, cases["jittered"].NT())
	for i := 0; i < len(marked); i += 5 {
		marked[i] = true
	}
	r, err := refine.Selective(cases["jittered"], marked)
	if err != nil {
		t.Fatal(err)
	}
	cases["refined"] = r.Mesh
	blob, err := meshio.EncodeMesh(r.Mesh)
	if err != nil {
		t.Fatal(err)
	}
	if cases["decoded"], err = meshio.DecodeMesh(blob); err != nil {
		t.Fatal(err)
	}
	// 28x14x10 cells are 23,520 tets, over the inline threshold with a
	// short last block.
	if cases["large"], err = meshgen.Channel(meshgen.DefaultChannel(28, 14, 10, 5)); err != nil {
		t.Fatal(err)
	}
	if cases["large-scrambled"], err = reorder.Scramble(cases["large"], 9); err != nil {
		t.Fatal(err)
	}
	if cases["large"].NT() < 16*1024 {
		t.Fatalf("the large case has %d tets, under the pipeline's threshold", cases["large"].NT())
	}

	for name, m := range cases {
		edges, norms, vol := finishWithMap(m)
		for _, procs := range []int{1, 2, 3} {
			prev := runtime.GOMAXPROCS(procs)
			err := m.Finish()
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", name, procs, err)
			}
			if len(edges) != m.NE() || len(norms) != len(m.EdgeNorm) || len(vol) != len(m.Vol) {
				t.Fatalf("%s at GOMAXPROCS %d: sizes %d/%d/%d, oracle %d/%d/%d", name, procs, m.NE(), len(m.EdgeNorm), len(m.Vol), len(edges), len(norms), len(vol))
			}
			for e := range edges {
				if m.Edges[e] != edges[e] || m.EdgeNorm[e] != norms[e] {
					t.Fatalf("%s at GOMAXPROCS %d: edge %d is %v %v, oracle %v %v", name, procs, e, m.Edges[e], m.EdgeNorm[e], edges[e], norms[e])
				}
			}
			for v := range vol {
				if m.Vol[v] != vol[v] {
					t.Fatalf("%s at GOMAXPROCS %d: volume %d is %v, oracle %v", name, procs, v, m.Vol[v], vol[v])
				}
			}
		}
	}
}

// TestFinishReportsFirstBadTet inverts two tets of a mesh over the
// pipeline's threshold, in different blocks, and requires Finish to name
// the lower one at every GOMAXPROCS — the pipeline's caller validates the
// blocks in order — and to leave no goroutine running.
func TestFinishReportsFirstBadTet(t *testing.T) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(28, 14, 10, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, ti := range []int{3 * 1024, 19000} {
		m.Tets[ti][0], m.Tets[ti][1] = m.Tets[ti][1], m.Tets[ti][0]
	}
	before := runtime.NumGoroutine()
	for _, procs := range []int{1, 2, 3} {
		prev := runtime.GOMAXPROCS(procs)
		err := m.Finish()
		runtime.GOMAXPROCS(prev)
		if err == nil || !strings.Contains(err.Error(), "tet 3072 ") {
			t.Errorf("GOMAXPROCS %d: err=%v, want tet 3072's", procs, err)
		}
	}
	// A worker's deferred Done precedes its exit by a few instructions.
	after := runtime.NumGoroutine()
	for i := 0; i < 1000 && after > before; i++ {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("%d goroutines before Finish, %d after", before, after)
	}
}

// BenchmarkFinish times the edge-structure build on the benchmark's
// 45k-vertex channel (meshgen.Channel is dominated by it).
func BenchmarkFinish(b *testing.B) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(64, 32, 20, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}
