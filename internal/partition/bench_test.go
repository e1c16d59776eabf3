package partition

import (
	"testing"

	"eul3d/internal/graph"
	"eul3d/internal/meshgen"
)

// BenchmarkSpectral partitions the distributed benchmark's mesh sequence
// (the 48x24x16 channel, seed 1, both levels of the 2-level sequence) 8 ways,
// the set-up the distributed engine's constructor waits for. One op is both
// levels' partitions; the inertial row gives the scale of a cheap method on
// the same graphs. Each row also reports cut-%, the share of the fine
// level's edges its partition cuts (the benchmark's
// partition.edge_cut_frac), so a faster row that cuts worse shows as such.
//
//	go test -run '^$' -bench Spectral -benchtime 5x -cpu 1 ./internal/partition
//
// The file calls only Partition and Evaluate, so it can be dropped into an older tree
// to time it against this one.
func BenchmarkSpectral(b *testing.B) {
	seq, err := meshgen.Sequence(meshgen.DefaultChannel(48, 24, 16, 1), 2)
	if err != nil {
		b.Fatal(err)
	}
	graphs := make([]*graph.CSR, len(seq))
	for l, m := range seq {
		if graphs[l], err = graph.FromEdges(m.NV(), m.Edges); err != nil {
			b.Fatal(err)
		}
	}
	for _, method := range []Method{Spectral, Inertial} {
		b.Run(method.String(), func(b *testing.B) {
			var fine []int32
			for i := 0; i < b.N; i++ {
				for l, m := range seq {
					part, err := Partition(graphs[l], m.X, 8, method, 1)
					if err != nil {
						b.Fatal(err)
					}
					checkPartition(b, part, 8)
					if l == 0 {
						fine = part
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(100*Evaluate(fine, seq[0].Edges, 8).CutFraction, "cut-%")
		})
	}
}
