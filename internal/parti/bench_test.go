package parti

import (
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/graph"
	"eul3d/internal/meshgen"
	"eul3d/internal/partition"
	"eul3d/internal/simnet"
)

// BenchmarkExchange times the two executors on the decomposition of the
// benchmark's distributed workload (48x24x16 channel, 8 spectral parts):
// one state gather and one state scatter-add through the edge-loop
// schedule per iteration, the in-repo counterpart of the ledger's
// parti.gather_ms / parti.scatter_ms; then what the distributed smoother's
// gather costs — the edge-loop schedule and the halo built on it — as two
// exchanges in series and as one through their merged schedule. ns/value
// is per ghost value moved (5 floats).
func BenchmarkExchange(b *testing.B) {
	const nproc = 8
	m, err := meshgen.Channel(meshgen.DefaultChannel(48, 24, 16, 42))
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.FromEdges(m.NV(), m.Edges)
	if err != nil {
		b.Fatal(err)
	}
	part, err := partition.Partition(g, m.X, nproc, partition.Spectral, 1)
	if err != nil {
		b.Fatal(err)
	}
	d, err := NewDist(part, nproc)
	if err != nil {
		b.Fatal(err)
	}
	refs, back := make([][]int32, nproc), make([][]int32, nproc)
	for _, e := range m.Edges {
		refs[part[e[0]]] = append(refs[part[e[0]]], e[0], e[1])
		back[part[e[1]]] = append(back[part[e[1]]], e[0])
	}
	for i := range m.BFaces {
		v := m.BFaces[i].V
		refs[part[v[0]]] = append(refs[part[v[0]]], v[0], v[1], v[2])
	}
	gs := NewGhostSpace(d)
	sch := BuildSchedule(gs, refs)
	halo := BuildSchedule(gs, back)
	merged := Merge(sch, halo)
	f := simnet.New(nproc)
	data := make([][]euler.State, nproc)
	for p := range data {
		data[p] = make([]euler.State, gs.TotalSize(p))
		for i := range data[p] {
			data[p][i] = euler.State{1, 0.5, 0, 0, 2.5}
		}
	}
	series := func(f *simnet.Fabric, data [][]euler.State) error {
		if err := sch.GatherStates(f, data); err != nil {
			return err
		}
		return halo.GatherStates(f, data)
	}
	for _, ex := range []struct {
		name  string
		items int
		run   func(*simnet.Fabric, [][]euler.State) error
	}{
		{"gather", sch.Items(), sch.GatherStates},
		{"scatter-add", sch.Items(), sch.ScatterAddStates},
		{"halo-gather/series", merged.Items(), series},
		{"halo-gather/merged", merged.Items(), merged.GatherStates},
	} {
		b.Run(ex.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := ex.run(f, data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ex.items), "ns/value")
		})
	}
}
