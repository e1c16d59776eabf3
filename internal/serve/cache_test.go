package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eul3d/internal/mesh"
	"eul3d/internal/solver"
)

// testEngineParts builds the meshes, key and builder for a spec.
func testEngineParts(t *testing.T, spec JobSpec) (EngineKey, func() (*solver.Steady, []*mesh.Mesh, error)) {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	ms, err := spec.BuildMeshes()
	if err != nil {
		t.Fatal(err)
	}
	return spec.Key(ms), func() (*solver.Steady, []*mesh.Mesh, error) {
		st, err := buildEngine(spec, ms)
		return st, ms, err
	}
}

// Concurrent misses on one key must share a single construction.
func TestCacheSingleFlight(t *testing.T) {
	met := &Metrics{}
	c := NewCache(2, met)
	spec := chanSpec(4, 2, 2, 1, KindSingle, 0, 10)
	key, build := testEngineParts(t, spec)
	var builds atomic.Int64
	slowBuild := func() (*solver.Steady, []*mesh.Mesh, error) {
		builds.Add(1)
		time.Sleep(30 * time.Millisecond)
		return build()
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := c.Acquire(context.Background(), key, slowBuild)
			if err != nil {
				t.Error(err)
				return
			}
			c.Release(e)
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key, want 1 (single-flight)", n)
	}
	if n := met.Builds.Load(); n != 1 {
		t.Fatalf("metrics report %d builds, want 1", n)
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d engines, want 1", c.Len())
	}
	c.Close()
}

// Over-capacity idle engines are evicted least-recently-used and closed.
func TestCacheLRUEviction(t *testing.T) {
	met := &Metrics{}
	c := NewCache(1, met)
	specA := chanSpec(4, 2, 2, 1, KindSingle, 0, 10)
	specB := chanSpec(5, 2, 2, 1, KindSingle, 0, 10)
	keyA, buildA := testEngineParts(t, specA)
	keyB, buildB := testEngineParts(t, specB)
	if keyA == keyB {
		t.Fatal("distinct meshes produced identical keys")
	}
	ea, err := c.Acquire(context.Background(), keyA, buildA)
	if err != nil {
		t.Fatal(err)
	}
	c.Release(ea)
	eb, err := c.Acquire(context.Background(), keyB, buildB)
	if err != nil {
		t.Fatal(err)
	}
	c.Release(eb)
	if got := met.Evictions.Load(); got != 1 {
		t.Fatalf("%d evictions, want 1", got)
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d engines, want 1", c.Len())
	}
	// A is gone: re-acquiring it is a fresh build.
	if _, err := c.Acquire(context.Background(), keyA, buildA); err != nil {
		t.Fatal(err)
	}
	if got := met.Builds.Load(); got != 3 {
		t.Fatalf("%d builds, want 3 (A, B, A again)", got)
	}
}

// A busy engine must not be evicted; it is collected once released.
func TestCacheBusyEngineSurvivesEviction(t *testing.T) {
	met := &Metrics{}
	c := NewCache(1, met)
	keyA, buildA := testEngineParts(t, chanSpec(4, 2, 2, 1, KindSingle, 0, 10))
	keyB, buildB := testEngineParts(t, chanSpec(5, 2, 2, 1, KindSingle, 0, 10))
	ea, err := c.Acquire(context.Background(), keyA, buildA)
	if err != nil {
		t.Fatal(err)
	}
	// A is leased; building B over-fills the cache but must not touch A.
	eb, err := c.Acquire(context.Background(), keyB, buildB)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d engines, want 2 (both busy)", c.Len())
	}
	c.Release(eb) // B idle, cache over capacity -> B (LRU tail is whichever is idle) evicted
	c.Release(ea)
	if c.Len() != 1 {
		t.Fatalf("cache holds %d engines after releases, want 1", c.Len())
	}
	if met.Evictions.Load() != 1 {
		t.Fatalf("%d evictions, want 1", met.Evictions.Load())
	}
}

// The hit path — lookup, lease, release — performs zero heap allocations,
// so a cache hit serves a job with no engine-construction work at all and
// the solve loop's zero-alloc guarantee survives end to end.
func TestCacheHitPathZeroAlloc(t *testing.T) {
	c := NewCache(2, &Metrics{})
	key, build := testEngineParts(t, chanSpec(4, 2, 2, 1, KindSingle, 0, 10))
	e, err := c.Acquire(context.Background(), key, build)
	if err != nil {
		t.Fatal(err)
	}
	c.Release(e)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		e, err := c.Acquire(ctx, key, build)
		if err != nil {
			t.Fatal(err)
		}
		c.Release(e)
	})
	if allocs != 0 {
		t.Fatalf("cache hit path allocates %.1f objects per acquire/release, want 0", allocs)
	}
}

// Concurrent hits on one key serialize on the engine lease: the engine is
// only ever leased to one holder at a time.
func TestCacheLeaseExcludes(t *testing.T) {
	c := NewCache(2, &Metrics{})
	key, build := testEngineParts(t, chanSpec(4, 2, 2, 1, KindSingle, 0, 10))
	var holders atomic.Int32
	var maxHolders atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := c.Acquire(context.Background(), key, build)
			if err != nil {
				t.Error(err)
				return
			}
			h := holders.Add(1)
			if h > maxHolders.Load() {
				maxHolders.Store(h)
			}
			time.Sleep(time.Millisecond)
			holders.Add(-1)
			c.Release(e)
		}()
	}
	wg.Wait()
	if m := maxHolders.Load(); m != 1 {
		t.Fatalf("engine leased to %d holders at once, want 1", m)
	}
}
