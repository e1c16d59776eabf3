package cluster

import (
	"testing"

	"eul3d/internal/meshgen"
	"eul3d/internal/meshio"
	"eul3d/internal/serve"
	"eul3d/internal/store"
)

// Hash-aware placement: a job whose spec names a mesh artifact lands on
// the node that already holds the bytes, even when the ring would route
// it elsewhere — and because the holder is picked by HEAD probe, no
// artifact push happens at all.
func TestClusterHashAffinity(t *testing.T) {
	n1 := startNode(t, serve.Config{})
	n2 := startNode(t, serve.Config{})
	nodes := map[string]*testNode{"n1": n1, "n2": n2}
	c := New(fastCfg())
	defer c.Close()
	if err := c.AddNode("n1", n1.srv.URL); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNode("n2", n2.srv.URL); err != nil {
		t.Fatal(err)
	}
	waitRoutable(t, c, 2)

	ms, err := meshgen.Sequence(meshgen.DefaultChannel(6, 3, 2, 9), 1)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := meshio.EncodeMesh(ms[0])
	if err != nil {
		t.Fatal(err)
	}

	spec := serve.JobSpec{
		Mesh:   serve.MeshSpec{Hash: store.Sum(blob)},
		Mach:   0.5,
		Engine: serve.KindSingle,
		Cycles: 30,
	}

	// Seed the artifact ONLY on the node the ring would not pick, so the
	// reroute is observable. The coordinator's own cache stays empty too:
	// if affinity failed, placement would have to proxy+push (bumping
	// ArtifactPushes), which the test asserts never happens.
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	holder := "n2"
	if c.ring.Owner(spec.RouteKey()) == "n2" {
		holder = "n1"
	}
	if _, err := nodes[holder].sched.Store().Put(blob); err != nil {
		t.Fatal(err)
	}

	j := submitCluster(t, c, spec)
	v := waitClusterDone(t, j)
	if v.State != serve.StateCompleted {
		t.Fatalf("job ended %s: %s", v.State, v.Error)
	}
	if v.Node != holder {
		t.Errorf("job placed on %s, want artifact holder %s (ring owner %s)",
			v.Node, holder, c.ring.Owner(spec.RouteKey()))
	}
	m := c.Metrics()
	if got := m.HashPlacements.Load(); got < 1 {
		t.Errorf("HashPlacements counter %d, want >= 1", got)
	}
	if got := m.ArtifactPushes.Load(); got != 0 {
		t.Errorf("ArtifactPushes counter %d, want 0 (placement should follow the bytes)", got)
	}

	// A repeat of the same spec sticks to the holder through the warm
	// engine pin; affinity does not fight warmth.
	j2 := submitCluster(t, c, spec)
	v2 := waitClusterDone(t, j2)
	if v2.State != serve.StateCompleted {
		t.Fatalf("repeat job ended %s: %s", v2.State, v2.Error)
	}
	if v2.Node != holder {
		t.Errorf("repeat job placed on %s, want pinned holder %s", v2.Node, holder)
	}
}
