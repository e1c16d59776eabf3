package multigrid

import (
	"fmt"
	"testing"

	"eul3d/internal/geom"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
)

// tetAdjacencyMap is the reference tetAdjacency is held to, entry for
// entry: faces matched through a Go map keyed by the sorted vertex triple,
// an entry deleted when its second tet arrives.
func tetAdjacencyMap(m *mesh.Mesh) [][4]int32 {
	type slot struct {
		tet  int32
		face int8
	}
	faceOf := func(t [4]int32, k int) [3]int32 {
		var f [3]int32
		idx := 0
		for i := 0; i < 4; i++ {
			if i != k {
				f[idx] = t[i]
				idx++
			}
		}
		if f[0] > f[1] {
			f[0], f[1] = f[1], f[0]
		}
		if f[1] > f[2] {
			f[1], f[2] = f[2], f[1]
		}
		if f[0] > f[1] {
			f[0], f[1] = f[1], f[0]
		}
		return f
	}
	adj := make([][4]int32, m.NT())
	for i := range adj {
		adj[i] = [4]int32{-1, -1, -1, -1}
	}
	open := make(map[[3]int32]slot, 2*m.NT())
	for ti, tet := range m.Tets {
		for k := 0; k < 4; k++ {
			f := faceOf(tet, k)
			if s, ok := open[f]; ok {
				adj[ti][k] = s.tet
				adj[s.tet][s.face] = int32(ti)
				delete(open, f)
			} else {
				open[f] = slot{int32(ti), int8(k)}
			}
		}
	}
	return adj
}

func TestTetAdjacencyMatchesMapForm(t *testing.T) {
	meshes := map[string]*mesh.Mesh{}
	for l, m := range sequence(t, 12, 8, 6, 3) {
		meshes[fmt.Sprintf("level %d of a channel sequence", l)] = m
	}
	spec := meshgen.DefaultChannel(9, 7, 5, 3)
	spec.Jitter = 0.3
	jittered, err := meshgen.Channel(spec)
	if err != nil {
		t.Fatal(err)
	}
	meshes["jittered"] = jittered
	// Not a manifold: the face {0,1,2} belongs to three tets, so it is
	// matched once and then opens afresh; {1,2,3} closes between the first
	// two.
	meshes["three tets on one face"] = &mesh.Mesh{
		X:    make([]geom.Vec3, 6),
		Tets: [][4]int32{{0, 1, 2, 3}, {2, 1, 3, 4}, {1, 0, 2, 4}, {5, 2, 0, 1}},
	}
	for name, m := range meshes {
		got, want := tetAdjacency(m), tetAdjacencyMap(m)
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
		}
		matched := 0
		for ti := range want {
			if got[ti] != want[ti] {
				t.Fatalf("%s: tet %d neighbours %v, map form has %v", name, ti, got[ti], want[ti])
			}
			for _, nb := range want[ti] {
				if nb >= 0 {
					matched++
				}
			}
		}
		if matched == 0 {
			t.Errorf("%s: no face was matched", name)
		}
	}
}
