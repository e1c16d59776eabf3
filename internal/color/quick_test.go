package color

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestQuickGreedyAlwaysValid colors random multigraphs and verifies the
// no-shared-vertex invariant through Verify.
func TestQuickGreedyAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 2 + rng.Intn(80)
		ne := rng.Intn(200)
		edges := make([][2]int32, 0, ne)
		for k := 0; k < ne; k++ {
			a := int32(rng.Intn(nv))
			b := int32(rng.Intn(nv))
			if a == b {
				continue
			}
			edges = append(edges, [2]int32{a, b})
		}
		c, err := Greedy(nv, edges)
		if err != nil {
			return false
		}
		return Verify(c, nv, edges) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickBlocksAlwaysValid colors random edge and face lists and checks
// each coloring both through Verify and VerifyFaces and against the
// per-element greedy oracle.
func TestQuickBlocksAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 3 + rng.Intn(80)
		edges := randomEdges(rng, nv, rng.Intn(400))
		faces := randomFaces(rng, nv, rng.Intn(200))
		ec, err := Greedy(nv, edges)
		if err != nil || Verify(ec, nv, edges) != nil {
			return false
		}
		fc, err := GreedyFaces(nv, faces)
		if err != nil || VerifyFaces(fc, nv, faces) != nil {
			return false
		}
		we, wf := perElementGreedy(nv, edges), perElementGreedy(nv, faces)
		return slices.Equal(ec.Order, we.Order) && slices.Equal(ec.Start, we.Start) &&
			slices.Equal(fc.Order, wf.Order) && slices.Equal(fc.Start, wf.Start)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickGreedyFacesAlwaysValid does the same for boundary-face
// colorings.
func TestQuickGreedyFacesAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 3 + rng.Intn(60)
		nf := rng.Intn(120)
		faces := make([][3]int32, 0, nf)
		for k := 0; k < nf; k++ {
			a := int32(rng.Intn(nv))
			b := int32(rng.Intn(nv))
			c := int32(rng.Intn(nv))
			if a == b || b == c || a == c {
				continue
			}
			faces = append(faces, [3]int32{a, b, c})
		}
		c, err := GreedyFaces(nv, faces)
		if err != nil {
			return false
		}
		return VerifyFaces(c, nv, faces) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickColorCountBounded: greedy edge coloring needs at most
// 2*maxDegree - 1 colors.
func TestQuickColorCountBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 2 + rng.Intn(50)
		edges := make([][2]int32, 0)
		seen := map[[2]int32]bool{}
		for k := 0; k < 150; k++ {
			a := int32(rng.Intn(nv))
			b := int32(rng.Intn(nv))
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			if seen[[2]int32{a, b}] {
				continue
			}
			seen[[2]int32{a, b}] = true
			edges = append(edges, [2]int32{a, b})
		}
		deg := make([]int, nv)
		maxDeg := 0
		for _, e := range edges {
			deg[e[0]]++
			deg[e[1]]++
			if deg[e[0]] > maxDeg {
				maxDeg = deg[e[0]]
			}
			if deg[e[1]] > maxDeg {
				maxDeg = deg[e[1]]
			}
		}
		c, err := Greedy(nv, edges)
		if err != nil {
			return false
		}
		if len(edges) == 0 {
			return c.NumColors() == 0
		}
		return c.NumColors() <= 2*maxDeg-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
