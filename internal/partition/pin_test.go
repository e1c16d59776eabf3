package partition

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
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
// The 10x8x6 mesh runs all 60 Lanczos steps; the 36-vertex one runs out of
// Krylov space.
func TestFiedlerPinned(t *testing.T) {
	for _, c := range []struct {
		nx, ny, nz int
		want       string
	}{
		{10, 8, 6, "54ae8ec94ad84e9f"},
		{3, 2, 2, "b5ffde3554f9cb99"},
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
		f, err := induced(g, verts, newLocal(m.NV())).fiedler(rand.New(rand.NewSource(1)), 60)
		if err != nil {
			t.Fatal(err)
		}
		if got := vecHash(f); got != c.want {
			t.Errorf("%dx%dx%d: Fiedler vector hash %s, want %s", c.nx, c.ny, c.nz, got, c.want)
		}
	}
}

// TestSpectralPinned holds recursive spectral bisection to fixed partitions,
// bit for bit. Every distributed history, PARTI schedule and Table 2 row
// follows from these, so a change to the Fiedler solve, the subgraph build
// or the splitting must leave every hash below as it is. The cases cover
// each way a split can go:
//   - the distributed benchmark's two-level 48x24x16 sequence at P = 8,
//     whose disconnected half at the root splits by BFS order (bfsKey);
//   - 64x32x20 at P = 2 and 16, and 10x8x6 at the uneven P = 3 and 7;
//   - a 36-vertex mesh, under the 61 vertices at which the Krylov space
//     runs out (m = n-1 and the last β is exactly zero), cut to P = 32,
//     so that splits reach 3 vertices and below (splitIdentity);
//   - two disjoint triangles (TestPartitionDisconnected's graph).
func TestSpectralPinned(t *testing.T) {
	type pinCase struct {
		name string
		want string
		run  func(t *testing.T) []int32
	}
	channel := func(nx, ny, nz int, seed int64, levels, level, np int) func(t *testing.T) []int32 {
		return func(t *testing.T) []int32 {
			seq, err := meshgen.Sequence(meshgen.DefaultChannel(nx, ny, nz, seed), levels)
			if err != nil {
				t.Fatal(err)
			}
			m := seq[level]
			g, err := graph.FromEdges(m.NV(), m.Edges)
			if err != nil {
				t.Fatal(err)
			}
			part, err := Partition(g, m.X, np, Spectral, 1)
			if err != nil {
				t.Fatal(err)
			}
			return part
		}
	}
	cases := []pinCase{
		{"48x24x16/L0/P8", "5f1a2fbb2e5af615", channel(48, 24, 16, 1, 2, 0, 8)},
		{"48x24x16/L1/P8", "4fef3ecd1bbfbe64", channel(48, 24, 16, 1, 2, 1, 8)},
		{"64x32x20/P2", "dc5570b88901bb85", channel(64, 32, 20, 1, 1, 0, 2)},
		{"64x32x20/P16", "8807c22074dc1d97", channel(64, 32, 20, 1, 1, 0, 16)},
		{"10x8x6/P3", "5bf7d81a10213ef6", channel(10, 8, 6, 7, 1, 0, 3)},
		{"10x8x6/P7", "7a5ebd7b510d2182", channel(10, 8, 6, 7, 1, 0, 7)},
		{"3x2x2/P2", "83c63c158811cac5", channel(3, 2, 2, 7, 1, 0, 2)},
		{"3x2x2/P32", "9030531ac84ee7d5", channel(3, 2, 2, 7, 1, 0, 32)},
		{"triangles/P2", "0b8ed7375a2777e4", func(t *testing.T) []int32 {
			g, err := graph.FromEdges(6, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}})
			if err != nil {
				t.Fatal(err)
			}
			part, err := Partition(g, nil, 2, Spectral, 1)
			if err != nil {
				t.Fatal(err)
			}
			return part
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := partHash(c.run(t)); got != c.want {
				t.Errorf("partition hash %s, want %s", got, c.want)
			}
		})
	}
}
