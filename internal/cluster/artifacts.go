package cluster

import (
	"fmt"

	"eul3d/internal/store"
)

// Artifact movement: meshes and checkpoints travel the cluster by content
// hash. A client uploads bytes once (to the coordinator or any node) and
// every subsequent reference — a solve spec's mesh hash, a handoff's
// resume hash — is a 64-char key. The coordinator closes the gaps: before
// placing a job it makes sure the target node holds every artifact the
// job names, pushing from its own cache or proxying from whichever peer
// has the bytes.

// artifactAffinity reroutes a placement toward the data: when the job
// names artifacts (its mesh, its resume record) that the routed node would
// need pushed, but another routable node already holds them all, placing
// on the holder skips the transfer entirely. Every check is a HEAD probe —
// bytes only ever move when no holder exists. A warm engine pin on the
// routed node always wins: rebuilding a solver engine costs far more than
// moving a blob. Returns nil to keep the routed node.
func (c *Coordinator) artifactAffinity(j *cjob, routed *node, exclude map[string]bool) *node {
	hashes := j.artifacts()
	if len(hashes) == 0 {
		return nil
	}
	c.mu.Lock()
	if pin, warm := c.warm[j.key]; warm && pin == routed.name {
		c.mu.Unlock()
		return nil
	}
	names := c.ring.Order(j.key)
	cands := make([]*node, 0, len(names))
	for _, name := range names {
		if name == routed.name || exclude[name] {
			continue
		}
		if n := c.nodes[name]; n != nil && n.routable() {
			cands = append(cands, n)
		}
	}
	c.mu.Unlock()
	if len(cands) == 0 || c.nodeHasAll(routed, hashes) {
		return nil
	}
	// Candidates are probed in ring order, so repeats of one key keep
	// landing on the same holder until its engine pin takes over.
	for _, n := range cands {
		if c.nodeHasAll(n, hashes) {
			c.met.HashPlacements.Add(1)
			c.cfg.Log.Printf("job %s: placing on %s, which already holds its %d artifact(s) (%s would need a push)",
				j.ID, n.name, len(hashes), routed.name)
			return n
		}
	}
	return nil
}

// nodeHasAll HEAD-probes n for every named hash.
func (c *Coordinator) nodeHasAll(n *node, hashes []string) bool {
	for _, h := range hashes {
		if ok, err := n.client.artifactHas(c.ctx, h); err != nil || !ok {
			return false
		}
	}
	return true
}

// ensureArtifacts makes every named hash present on node n. Cheapest path
// first: the node already holds it; else push from the coordinator's
// cache; else proxy the bytes from a peer node, cache them, and push.
func (c *Coordinator) ensureArtifacts(n *node, hashes ...string) error {
	for _, hash := range hashes {
		if ok, err := n.client.artifactHas(c.ctx, hash); err == nil && ok {
			continue
		}
		data, gerr := c.store.Get(hash)
		if gerr != nil {
			if data = c.proxyArtifact(hash, n.name); data == nil {
				return fmt.Errorf("cluster: artifact %s held by neither the coordinator nor any peer", hash[:12])
			}
		}
		got, err := n.client.artifactPut(c.ctx, data)
		if err != nil {
			return err
		}
		if got != hash {
			return fmt.Errorf("cluster: node %s stored artifact as %s, want %s", n.name, got[:12], hash[:12])
		}
		c.met.ArtifactPushes.Add(1)
	}
	return nil
}

// proxyArtifact fetches hash's bytes from any live node except skip,
// verifying the content against the hash and caching it in the
// coordinator's store. It returns nil when no peer holds the artifact.
func (c *Coordinator) proxyArtifact(hash, skip string) []byte {
	c.mu.Lock()
	peers := make([]*node, 0, len(c.nodes))
	for _, n := range c.nodes {
		peers = append(peers, n)
	}
	c.mu.Unlock()
	for _, n := range peers {
		// Draining and saturated nodes still serve their stores; only a
		// node that stopped answering probes is skipped.
		if n.name == skip || n.statusNow() == StatusUnhealthy {
			continue
		}
		data, err := n.client.artifactGet(c.ctx, hash)
		if err != nil || data == nil {
			continue
		}
		if store.Sum(data) != hash {
			c.cfg.Log.Printf("artifact %s: node %s served mismatched content", hash[:12], n.name)
			continue
		}
		c.store.Put(data)
		c.met.ArtifactProxies.Add(1)
		return data
	}
	return nil
}

// keep pins the mesh a pulled record names in the coordinator's store,
// first proxying it from the nodes — the one the record came from holds it
// — when the coordinator does not. It reports whether the mesh is now held
// ("" names none and needs nothing).
func (c *Coordinator) keep(mesh string) bool {
	if mesh == "" || c.store.Pin(mesh) == nil {
		return true
	}
	return c.proxyArtifact(mesh, "") != nil && c.store.Pin(mesh) == nil
}
