package cluster

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"
)

// keyN generates keys shaped like serve.JobSpec.RouteKey's output (hex
// digests). Sequential "key-N" literals would be misleading here: they differ only
// in their final bytes, which FNV maps to near-identical ring positions,
// clustering whole runs of keys onto one point.
func keyN(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return fmt.Sprintf("%x", sum[:8])
}

func TestRingEmptyAndDuplicates(t *testing.T) {
	r := NewRing()
	if got := r.Order("k"); got != nil {
		t.Fatalf("empty ring Order = %v, want nil", got)
	}
	if got := r.Owner("k"); got != "" {
		t.Fatalf("empty ring Owner = %q, want empty", got)
	}
	r.Add("a")
	r.Add("a") // duplicate add is a no-op
	if r.Len() != 1 {
		t.Fatalf("Len after duplicate add = %d, want 1", r.Len())
	}
	r.Remove("missing") // no-op
	r.Remove("a")
	if r.Len() != 0 || r.Owner("k") != "" {
		t.Fatalf("ring not empty after removing sole member")
	}
}

func TestRingOrderDeterministicAndDistinct(t *testing.T) {
	members := []string{"n1", "n2", "n3", "n4", "n5"}
	a, b := NewRing(), NewRing()
	for _, m := range members {
		a.Add(m)
	}
	// Insert in reverse: the ring must not depend on registration order.
	for i := len(members) - 1; i >= 0; i-- {
		b.Add(members[i])
	}
	for i := 0; i < 200; i++ {
		oa, ob := a.Order(keyN(i)), b.Order(keyN(i))
		if !reflect.DeepEqual(oa, ob) {
			t.Fatalf("key %d: order depends on insertion order: %v vs %v", i, oa, ob)
		}
		if len(oa) != len(members) {
			t.Fatalf("key %d: order has %d entries, want %d", i, len(oa), len(members))
		}
		seen := map[string]bool{}
		for _, m := range oa {
			if seen[m] {
				t.Fatalf("key %d: duplicate member %s in order %v", i, m, oa)
			}
			seen[m] = true
		}
		if oa[0] != a.Owner(keyN(i)) {
			t.Fatalf("key %d: Owner %q != Order[0] %q", i, a.Owner(keyN(i)), oa[0])
		}
	}
}

// Removing one member must remap only the keys it owned; everyone else's
// keys stay put (the property that keeps engine caches warm across
// membership changes).
func TestRingMinimalRemap(t *testing.T) {
	r := NewRing()
	for _, m := range []string{"n1", "n2", "n3", "n4", "n5"} {
		r.Add(m)
	}
	const keys = 2000
	before := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		before[keyN(i)] = r.Owner(keyN(i))
	}
	r.Remove("n3")
	moved := 0
	for i := 0; i < keys; i++ {
		after := r.Owner(keyN(i))
		switch {
		case before[keyN(i)] == "n3":
			if after == "n3" {
				t.Fatalf("key %d still owned by removed member", i)
			}
		case after != before[keyN(i)]:
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys not owned by n3 changed owner on its removal", moved)
	}
	// And failover is exactly the precomputed successor: Order[1] before
	// the removal is Owner after it.
	r2 := NewRing()
	for _, m := range []string{"n1", "n2", "n3", "n4", "n5"} {
		r2.Add(m)
	}
	for i := 0; i < keys; i++ {
		if before[keyN(i)] != "n3" {
			continue
		}
		succ := r2.Order(keyN(i))[1]
		if got := r.Owner(keyN(i)); got != succ {
			t.Fatalf("key %d failed over to %s, want ring successor %s", i, got, succ)
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing()
	members := []string{"n1", "n2", "n3", "n4", "n5"}
	for _, m := range members {
		r.Add(m)
	}
	const keys = 5000
	counts := map[string]int{}
	for i := 0; i < keys; i++ {
		counts[r.Owner(keyN(i))]++
	}
	// With 64 virtual points per member a 5-way split should put every
	// member within a loose band around keys/5; the guard is against
	// gross skew (one member owning almost nothing or almost everything).
	for _, m := range members {
		share := float64(counts[m]) / keys
		if share < 0.08 || share > 0.40 {
			t.Errorf("member %s owns %.1f%% of keys, want within [8%%, 40%%] (counts %v)", m, 100*share, counts)
		}
	}
}
