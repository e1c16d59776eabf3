package partition

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"eul3d/internal/graph"
	"eul3d/internal/meshgen"
)

// partHash is the FNV-64a hash of a partition's part numbers, each as a
// little-endian int32.
func partHash(part []int32) string {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range part {
		binary.LittleEndian.PutUint32(b[:], uint32(p))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// vecHash is the FNV-64a hash of a vector's IEEE-754 bits, each value
// little-endian.
func vecHash(x []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestFiedlerPinned holds the Fiedler solve itself to fixed bits, which a
// partition hash cannot do alone: a split moves only when a vertex crosses
// the median, so a reassociated sum can leave most partitions as they were.
// The 10x8x6 mesh coarsens twice and is refined on the way back up; the
// 36-vertex one is under coarsestVerts and solved directly.
func TestFiedlerPinned(t *testing.T) {
	for _, c := range []struct {
		nx, ny, nz int
		want       string
	}{
		{10, 8, 6, "ed9c97d87f30d281"},
		{3, 2, 2, "7552fdff573eb2d7"},
	} {
		m, err := meshgen.Channel(meshgen.DefaultChannel(c.nx, c.ny, c.nz, 7))
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.FromEdges(m.NV(), m.Edges)
		if err != nil {
			t.Fatal(err)
		}
		verts := make([]int32, m.NV())
		for i := range verts {
			verts[i] = int32(i)
		}
		f, err := induced(g, verts, newLocal(m.NV())).fiedler()
		if err != nil {
			t.Fatal(err)
		}
		if got := vecHash(f); got != c.want {
			t.Errorf("%dx%dx%d: Fiedler vector hash %s, want %s", c.nx, c.ny, c.nz, got, c.want)
		}
	}
}

// channelCase is a spectral partition of one level of a channel mesh
// sequence, with its pinned hash and the edge cut the single-level Lanczos
// solve (60 steps from a seeded random start) gave it before the multilevel
// solve replaced it.
type channelCase struct {
	name              string
	nx, ny, nz        int
	seed              int64
	levels, level, np int
	want              string
	lanczosCut        int
}

// channelCases are TestSpectralPinned's meshes:
//   - the distributed benchmark's two-level 48x24x16 sequence at P = 8;
//   - 64x32x20 at P = 2 and 16, and 10x8x6 at the uneven P = 3 and 7;
//   - a 36-vertex mesh, under coarsestVerts and cut to P = 32, so that
//     splits reach the subgraphs under coarseSteps+1 vertices, where the
//     Krylov space runs out (m = n-1), and 3 vertices and below
//     (splitIdentity).
var channelCases = []channelCase{
	{"48x24x16/L0/P8", 48, 24, 16, 1, 2, 0, 8, "96a601094eec0595", 9361},
	{"48x24x16/L1/P8", 48, 24, 16, 1, 2, 1, 8, "b7ba68b69be90dc4", 2241},
	{"64x32x20/P2", 64, 32, 20, 1, 1, 0, 2, "fc3abb2f3be49d85", 2845},
	{"64x32x20/P16", 64, 32, 20, 1, 1, 0, 16, "36da6b9d37e22457", 22311},
	{"10x8x6/P3", 10, 8, 6, 7, 1, 0, 3, "f15e5650862c8336", 404},
	{"10x8x6/P7", 10, 8, 6, 7, 1, 0, 7, "e4d7f14b8b9e5952", 789},
	{"3x2x2/P2", 3, 2, 2, 7, 1, 0, 2, "83c63c158811cac5", 25},
	{"3x2x2/P32", 3, 2, 2, 7, 1, 0, 32, "2c5de3b4752ebd85", 135},
}

// partition builds the case's mesh and partitions it spectrally.
func (c channelCase) partition(t *testing.T) (part []int32, edges [][2]int32) {
	t.Helper()
	seq, err := meshgen.Sequence(meshgen.DefaultChannel(c.nx, c.ny, c.nz, c.seed), c.levels)
	if err != nil {
		t.Fatal(err)
	}
	m := seq[c.level]
	g, err := graph.FromEdges(m.NV(), m.Edges)
	if err != nil {
		t.Fatal(err)
	}
	part, err = Partition(g, m.X, c.np, Spectral, 1)
	if err != nil {
		t.Fatal(err)
	}
	return part, m.Edges
}

// starGraph is a star of n leaves around vertex 0. A heavy-edge matching
// pairs the centre with one leaf and leaves the rest single, so its
// coarsening stops at once on the shrink bound.
func starGraph(t *testing.T, n int) *graph.CSR {
	t.Helper()
	edges := make([][2]int32, n)
	for i := range edges {
		edges[i] = [2]int32{0, int32(i + 1)}
	}
	g, err := graph.FromEdges(n+1, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSpectralPinned holds recursive spectral bisection to fixed partitions,
// bit for bit. Every distributed history, PARTI schedule and Table 2 row
// follows from these, so a change to the Fiedler solve, the coarsening, the
// subgraph build or the splitting must leave every hash below as it is.
// Beside channelCases, two graphs cover the remaining ways a split can go:
//   - a 400-leaf star, over coarsestVerts, whose coarsening stops on the
//     shrink bound;
//   - two disjoint triangles (TestPartitionDisconnected's graph), which
//     split by BFS order (bfsKey).
func TestSpectralPinned(t *testing.T) {
	for _, c := range channelCases {
		t.Run(c.name, func(t *testing.T) {
			part, _ := c.partition(t)
			if got := partHash(part); got != c.want {
				t.Errorf("partition hash %s, want %s", got, c.want)
			}
		})
	}
	for _, c := range []struct {
		name, want string
		g          func(t *testing.T) *graph.CSR
	}{
		{"star400/P2", "c64eb1a55bf921e5", func(t *testing.T) *graph.CSR { return starGraph(t, 400) }},
		{"triangles/P2", "0b8ed7375a2777e4", func(t *testing.T) *graph.CSR {
			g, err := graph.FromEdges(6, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			part, err := Partition(c.g(t), nil, 2, Spectral, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := partHash(part); got != c.want {
				t.Errorf("partition hash %s, want %s", got, c.want)
			}
		})
	}
}

// TestSpectralCutBound holds the multilevel solve's edge cuts to the
// single-level solve's: at most 5 % more on the distributed benchmark's
// fine mesh (48x24x16 L0, P = 8), at most 10 % more on every other case.
func TestSpectralCutBound(t *testing.T) {
	for _, c := range channelCases {
		t.Run(c.name, func(t *testing.T) {
			part, edges := c.partition(t)
			q := Evaluate(part, edges, c.np)
			bound := 1.10
			if c.name == "48x24x16/L0/P8" {
				bound = 1.05
			}
			t.Logf("cut %d (%.4f), single-level %d: %.3fx", q.EdgeCut, q.CutFraction, c.lanczosCut, float64(q.EdgeCut)/float64(c.lanczosCut))
			if float64(q.EdgeCut) > bound*float64(c.lanczosCut) {
				t.Errorf("edge cut %d over %.2f x the single-level solve's %d", q.EdgeCut, bound, c.lanczosCut)
			}
		})
	}
}

// TestPartitionSameAtAnyGOMAXPROCS holds the partition to the same bits
// whether the subtrees of the top splits run concurrently or not.
func TestPartitionSameAtAnyGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, c := range []channelCase{channelCases[1], channelCases[5]} {
		want := ""
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			part, _ := c.partition(t)
			got := partHash(part)
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("%s: GOMAXPROCS %d gives partition hash %s, GOMAXPROCS 1 %s", c.name, procs, got, want)
			}
		}
	}
}
