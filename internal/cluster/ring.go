package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over node names. Each node owns the same
// number of virtual points, so keys spread roughly evenly and adding or
// removing one node remaps only the keys whose nearest point belonged to
// it — hot engine-cache keys keep hitting the node whose cache is already
// warm across membership changes.
//
// Ring is not synchronized; the Coordinator guards it with its registry
// lock.
type Ring struct {
	points []ringPoint // sorted by hash
	names  map[string]bool
}

type ringPoint struct {
	h    uint64
	name string
}

// NewRing builds an empty ring with ringReplicas virtual points per
// member.
func NewRing() *Ring {
	return &Ring{names: make(map[string]bool)}
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Add places name's virtual points on the ring. Adding a member twice is a
// no-op.
func (r *Ring) Add(name string) {
	if r.names[name] {
		return
	}
	r.names[name] = true
	for i := 0; i < ringReplicas; i++ {
		r.points = append(r.points, ringPoint{h: ringHash(name + "#" + strconv.Itoa(i)), name: name})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].h < r.points[b].h })
}

// Remove deletes name's virtual points.
func (r *Ring) Remove(name string) {
	if !r.names[name] {
		return
	}
	delete(r.names, name)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.name != name {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.names) }

// Order returns every member in ring-preference order for key: the owner
// first, then each successor walking clockwise. Callers route to the first
// healthy entry, so a dead owner's keys deterministically fail over to the
// same successor everywhere.
func (r *Ring) Order(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	out := make([]string, 0, len(r.names))
	seen := make(map[string]bool, len(r.names))
	for i := 0; i < len(r.points) && len(out) < len(r.names); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.name] {
			seen[p.name] = true
			out = append(out, p.name)
		}
	}
	return out
}

// Owner returns the primary member for key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	if o := r.Order(key); len(o) > 0 {
		return o[0]
	}
	return ""
}
