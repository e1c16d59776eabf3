package dmsolver

import (
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/meshgen"
)

// BenchmarkNewMultigrid times the constructor at the shape of the benchmark's
// distributed workload (48x24x16 channel, 2 levels, 8 processors, every
// level partitioned on its own): the in-repo counterpart of the ledger's
// dmsolver.new_ms. Meshes, partitions and so the transfer-operator search
// are outside or inside the timed region exactly as they are there.
func BenchmarkNewMultigrid(b *testing.B) {
	const nproc = 8
	meshes, parts := independentParts(b, meshgen.DefaultChannel(48, 24, 16, 42), 2, nproc)
	p := euler.DefaultParams(0.675, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewMultigrid(meshes, parts, nproc, p, 2); err != nil {
			b.Fatal(err)
		}
	}
}
