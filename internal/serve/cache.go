package serve

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"eul3d/internal/mesh"
	"eul3d/internal/perf"
	"eul3d/internal/solver"
)

// Engine is one cached solver.Steady with its lease. An engine serves at
// most one job at a time (the underlying solution state is shared), so a
// cache hit on a busy engine waits for the current job to release it.
type Engine struct {
	key EngineKey
	st  *solver.Steady
	ms  []*mesh.Mesh // the meshes st was built over

	// lease holds one token while the engine is idle; Acquire takes it,
	// Release puts it back. A buffered channel (rather than a mutex) lets
	// waiters give up when their job context dies.
	lease chan struct{}

	elem    *list.Element // position in the cache's LRU list
	waiters int           // Acquire calls blocked on the lease (guarded by Cache.mu)
}

// Steady returns the prebuilt solver. The caller owns it until Release.
func (e *Engine) Steady() *solver.Steady { return e.st }

// Key returns the engine's cache key.
func (e *Engine) Key() EngineKey { return e.key }

// buildCall is the single-flight slot for one in-progress construction.
type buildCall struct {
	done chan struct{}
	err  error
}

// Cache is the engine cache: ready engines keyed by mesh-content hash with
// LRU eviction, plus single-flight construction so concurrent misses on
// one key perform one build. The hit path — lookup, lease, release — does
// zero heap allocations (asserted by tests), preserving the solve loop's
// zero-alloc guarantee end to end. Beside the keys, aliases map the mesh
// sources that named a cached engine to its key, so a repeat request
// finds the engine without building a mesh to hash; an alias is dropped
// with its engine.
type Cache struct {
	mu       sync.Mutex
	capacity int
	entries  map[EngineKey]*Engine
	aliases  map[meshSource]EngineKey
	lru      *list.List // *Engine, most recently released at the front
	building map[EngineKey]*buildCall
	met      *Metrics
}

// NewCache builds a cache that keeps at most capacity idle engines.
func NewCache(capacity int, met *Metrics) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	if met == nil {
		met = &Metrics{}
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[EngineKey]*Engine),
		aliases:  make(map[meshSource]EngineKey),
		lru:      list.New(),
		building: make(map[EngineKey]*buildCall),
		met:      met,
	}
}

// Len returns the number of cached engines (idle or leased).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// lookup returns the key of the cached engine src names, if any.
func (c *Cache) lookup(src meshSource) (EngineKey, bool) {
	c.mu.Lock()
	k, ok := c.aliases[src]
	c.mu.Unlock()
	return k, ok
}

// alias records that src names e, for as long as e stays cached. The
// caller holds e's lease, so e cannot be evicted meanwhile.
func (c *Cache) alias(src meshSource, e *Engine) {
	c.mu.Lock()
	if e.elem != nil {
		c.aliases[src] = e.key
	}
	c.mu.Unlock()
}

// Acquire leases the engine for key, building it — and the meshes it runs
// on — with build on a miss. Concurrent misses for the same key share a
// single construction (single-flight); concurrent hits serialize on the
// engine lease. The caller must Release the engine when its job finishes.
// A hit on an idle engine performs no allocations.
func (c *Cache) Acquire(ctx context.Context, key EngineKey, build func() (*solver.Steady, []*mesh.Mesh, error)) (*Engine, error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			e.waiters++
			c.mu.Unlock()
			c.met.CacheHits.Add(1)
			select {
			case <-e.lease:
				c.mu.Lock()
				e.waiters--
				c.mu.Unlock()
				return e, nil
			case <-ctx.Done():
				c.mu.Lock()
				e.waiters--
				c.mu.Unlock()
				return nil, ctx.Err()
			}
		}
		if b, ok := c.building[key]; ok {
			// Someone else is building this engine: wait for the build and
			// retry the lookup (all sharers then race for the lease).
			c.mu.Unlock()
			c.met.CacheMisses.Add(1)
			select {
			case <-b.done:
				if b.err != nil {
					return nil, b.err
				}
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		b := &buildCall{done: make(chan struct{})}
		c.building[key] = b
		c.mu.Unlock()
		c.met.CacheMisses.Add(1)

		st, ms, err := build()
		c.mu.Lock()
		delete(c.building, key)
		if err != nil {
			b.err = fmt.Errorf("serve: building engine %s: %w", key, err)
			close(b.done)
			c.mu.Unlock()
			return nil, b.err
		}
		c.met.Builds.Add(1)
		e := &Engine{key: key, st: st, ms: ms, lease: make(chan struct{}, 1)}
		// The builder leases the fresh engine immediately (no token in the
		// channel yet); sharers blocked on b.done find it busy and wait.
		c.entries[key] = e
		e.elem = c.lru.PushFront(e)
		c.evictExcessLocked()
		close(b.done)
		c.mu.Unlock()
		return e, nil
	}
}

// Release returns a leased engine to the cache, marking it most recently
// used and evicting over-capacity idle engines.
func (c *Cache) Release(e *Engine) {
	c.mu.Lock()
	if e.elem != nil {
		c.lru.MoveToFront(e.elem)
	}
	e.lease <- struct{}{}
	c.evictExcessLocked()
	c.mu.Unlock()
}

// evictExcessLocked closes least-recently-used engines while the cache is
// over capacity. Only idle engines with no queued waiters are eligible;
// leased engines are skipped and collected on a later Release.
func (c *Cache) evictExcessLocked() {
	for e := c.lru.Back(); e != nil && len(c.entries) > c.capacity; {
		prev := e.Prev()
		eng := e.Value.(*Engine)
		if eng.waiters == 0 {
			select {
			case <-eng.lease: // idle: take the token so nobody can lease it
				c.dropLocked(eng)
				c.met.Evictions.Add(1)
			default: // busy
			}
		}
		e = prev
	}
}

// dropLocked removes an idle engine whose lease token the caller has
// taken, with the aliases that name it, and closes it.
func (c *Cache) dropLocked(eng *Engine) {
	c.lru.Remove(eng.elem)
	eng.elem = nil
	delete(c.entries, eng.key)
	for src, k := range c.aliases {
		if k == eng.key {
			delete(c.aliases, src)
		}
	}
	eng.st.Close()
}

// EngineStats snapshots the per-engine perf stats of every cached engine,
// keyed by the engine's short label — the data behind the per-engine
// Mflops rows of the metrics endpoint.
func (c *Cache) EngineStats() map[string]perf.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]perf.Stats, len(c.entries))
	for k, e := range c.entries {
		out[k.String()] = e.st.Stats()
	}
	return out
}

// Close evicts and closes every idle engine; leased engines are closed by
// their final Release after the scheduler has drained.
func (c *Cache) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.lru.Back(); e != nil; {
		prev := e.Prev()
		eng := e.Value.(*Engine)
		select {
		case <-eng.lease:
			c.dropLocked(eng)
		default:
		}
		e = prev
	}
}
