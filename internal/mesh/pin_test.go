package mesh_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/meshio"
	"eul3d/internal/refine"
	"eul3d/internal/reorder"
	"eul3d/internal/scenario"
)

// meshHash is the FNV-64a hash of everything a finished mesh holds, in
// order: the coordinates' IEEE-754 bits, the tets, each boundary face's
// vertices, kind and normal bits, the edges, the edge normals' bits and
// the control volumes' bits, every value little-endian.
func meshHash(m *mesh.Mesh) string {
	h := fnv.New64a()
	var b [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	i := func(v int32) {
		binary.LittleEndian.PutUint32(b[:4], uint32(v))
		h.Write(b[:4])
	}
	for _, x := range m.X {
		f(x.X)
		f(x.Y)
		f(x.Z)
	}
	for _, t := range m.Tets {
		for _, v := range t {
			i(v)
		}
	}
	for _, bf := range m.BFaces {
		for _, v := range bf.V {
			i(v)
		}
		h.Write([]byte{byte(bf.Kind)})
		f(bf.Normal.X)
		f(bf.Normal.Y)
		f(bf.Normal.Z)
	}
	for _, e := range m.Edges {
		i(e[0])
		i(e[1])
	}
	for _, n := range m.EdgeNorm {
		f(n.X)
		f(n.Y)
		f(n.Z)
	}
	for _, v := range m.Vol {
		f(v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestMeshesPinned holds the meshes the generator, the scenarios, the
// refiner and the codec build to FNV-64a hashes of every bit they hold
// (meshHash): a three-level jittered sequence, the Sod tube (wall ends),
// the wedge scenario's ramp channel, a selectively refined mesh after an
// encode/decode round trip, that channel scrambled and scrambled then RCM
// renumbered, and, large enough for Finish's pipeline, the distributed
// benchmark's fine channel; also a channel the generator has to retry at
// smaller jitter and a single cell, every face of which is boundary.
// Set-up may be made faster; it may not move a bit of what it builds,
// since every golden history and pinned partition rests on it.
func TestMeshesPinned(t *testing.T) {
	want := map[string]string{
		"sequence/L0":   "812fb6d97f958c59",
		"sequence/L1":   "620f9857e42d74e1",
		"sequence/L2":   "2d6f9f7f1d997a91",
		"sod":           "83a9da4f4ed2f1cd",
		"wedge/L0":      "9de6b0bb251e50c2",
		"wedge/L1":      "3bb30bdfd568cc50",
		"refined":       "557cb5d3b17065a8",
		"scrambled":     "168e8226a84bd5f9",
		"scrambled+rcm": "6de158c65213da6e",
		"48x24x16":      "84f8894f111fd241",
		"retried":       "22812cccc00a9c89",
		"1x1x1":         "6133c207c6c00e15",
	}
	got := map[string]*mesh.Mesh{}
	seq, err := meshgen.Sequence(meshgen.DefaultChannel(24, 12, 8, 17), 3)
	if err != nil {
		t.Fatal(err)
	}
	for l, m := range seq {
		got[fmt.Sprintf("sequence/L%d", l)] = m
	}
	for _, name := range []string{"sod", "wedge"} {
		sc, err := scenario.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := sc.Meshes(sc.MaxLevels)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) == 1 {
			got[name] = ms[0]
			continue
		}
		for l, m := range ms {
			got[fmt.Sprintf("%s/L%d", name, l)] = m
		}
	}
	marked := make([]bool, seq[1].NT())
	for i := 0; i < len(marked); i += 7 {
		marked[i] = true
	}
	r, err := refine.Selective(seq[1], marked)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := meshio.EncodeMesh(r.Mesh)
	if err != nil {
		t.Fatal(err)
	}
	if got["refined"], err = meshio.DecodeMesh(blob); err != nil {
		t.Fatal(err)
	}

	if got["scrambled"], err = reorder.Scramble(seq[0], 5); err != nil {
		t.Fatal(err)
	}
	if got["scrambled+rcm"], err = reorder.RCMMesh(got["scrambled"]); err != nil {
		t.Fatal(err)
	}
	// Jitter 0.9 inverts tets, so the generator halves it and retries.
	retried := meshgen.DefaultChannel(5, 4, 3, 13)
	retried.Jitter = 0.9
	if got["retried"], err = meshgen.Channel(retried); err != nil {
		t.Fatal(err)
	}
	if got["1x1x1"], err = meshgen.Channel(meshgen.DefaultChannel(1, 1, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if got["48x24x16"], err = meshgen.Channel(meshgen.DefaultChannel(48, 24, 16, 1)); err != nil {
		t.Fatal(err)
	}

	for name, w := range want {
		m := got[name]
		if m == nil {
			t.Errorf("%s: no such mesh", name)
			continue
		}
		if h := meshHash(m); h != w {
			t.Errorf("%s: mesh hash %s, want %s", name, h, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("built %d meshes, pinned %d", len(got), len(want))
	}
}
