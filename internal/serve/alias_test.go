package serve

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"eul3d/internal/meshgen"
	"eul3d/internal/meshio"
)

// A repeat request finds its engine by mesh source (meshSource) without
// building a mesh. These tests hold the contracts that lookup must keep:
// engines are still shared by mesh content, a file path is never trusted
// to name the same mesh twice, and an alias lives exactly as long as its
// engine. Each fails if a change keys engines by source alone or lets an
// alias outlive the engine it names.

// runSpec submits spec, waits for it and returns its view, which must
// show a completed run.
func runSpec(t *testing.T, s *Scheduler, spec JobSpec) JobView {
	t.Helper()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	v := j.View()
	if v.State != StateCompleted || v.ResultHash == "" {
		t.Fatalf("job %s ended %s (%q), want completed with a result", v.ID, v.State, v.Error)
	}
	return v
}

// counts reads the engine and mesh build counters.
func counts(s *Scheduler) (engines, meshes int64) {
	return s.met.Builds.Load(), s.met.MeshBuilds.Load()
}

// checkAliases asserts that every alias names an engine the cache holds.
func checkAliases(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for src, k := range c.aliases {
		if c.entries[k] == nil {
			t.Errorf("alias %+v outlived its engine %s", src, k)
		}
	}
}

// (a) A generated mesh and an upload of the same mesh are two sources of
// one engine: the by-hash job is a cache hit on the generator's engine,
// and repeats of either build no mesh at all.
func TestAliasSharesEngineByContent(t *testing.T) {
	s := NewScheduler(Config{Runners: 1})
	defer s.Stop()
	gen := chanSpec(4, 2, 2, 1, KindSingle, 0, 10)
	first := runSpec(t, s, gen)

	ms, err := meshgen.Sequence(meshgen.DefaultChannel(4, 2, 2, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := meshio.EncodeMesh(ms[0])
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Store().Put(blob)
	if err != nil {
		t.Fatal(err)
	}
	byHash := JobSpec{Mesh: MeshSpec{Hash: h}, Mach: 0.5, Engine: KindSingle, Cycles: 10}
	v := runSpec(t, s, byHash)
	if v.CacheHit == nil || !*v.CacheHit || v.Engine != first.Engine {
		t.Fatalf("by-hash job: engine %s cache_hit %v, want a hit on %s", v.Engine, v.CacheHit, first.Engine)
	}
	if v.ResultHash != first.ResultHash {
		t.Fatalf("by-hash result %s, generator %s", v.ResultHash, first.ResultHash)
	}
	if e, m := counts(s); e != 1 || m != 2 {
		t.Fatalf("%d engine builds and %d mesh builds, want 1 and 2 (generated, decoded)", e, m)
	}

	for _, spec := range []JobSpec{gen, byHash} {
		if v := runSpec(t, s, spec); v.ResultHash != first.ResultHash || !*v.CacheHit {
			t.Fatalf("repeat: result %s cache_hit %v, want %s and a hit", v.ResultHash, *v.CacheHit, first.ResultHash)
		}
	}
	if e, m := counts(s); e != 1 || m != 2 {
		t.Fatalf("after repeats: %d engine builds and %d mesh builds, want 1 and 2 (a repeat builds nothing)", e, m)
	}
	checkAliases(t, s.cache)
}

// (b) A Path mesh is read and hashed on every request: a file rewritten
// between two requests runs on its new content.
func TestAliasNeverNamesAPath(t *testing.T) {
	s := NewScheduler(Config{Runners: 1})
	defer s.Stop()
	path := filepath.Join(t.TempDir(), "m.mesh")
	save := func(nx int) {
		ms, err := meshgen.Sequence(meshgen.DefaultChannel(nx, 2, 2, 1), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := meshio.SaveMesh(path, ms[0]); err != nil {
			t.Fatal(err)
		}
	}
	fromFile := JobSpec{Mesh: MeshSpec{Path: path}, Mach: 0.5, Engine: KindSingle, Cycles: 10}

	save(4)
	a := runSpec(t, s, fromFile)
	save(5)
	b := runSpec(t, s, fromFile)
	if b.Engine == a.Engine || *b.CacheHit {
		t.Fatalf("rewritten file ran on engine %s (cache_hit %v), the old file's was %s", b.Engine, *b.CacheHit, a.Engine)
	}
	want := runSpec(t, s, chanSpec(5, 2, 2, 1, KindSingle, 0, 10))
	if b.ResultHash != want.ResultHash || want.Engine != b.Engine {
		t.Fatalf("rewritten file: result %s on %s, the generated 5x2x2 mesh gives %s on %s",
			b.ResultHash, b.Engine, want.ResultHash, want.Engine)
	}
	_, before := counts(s)
	if v := runSpec(t, s, fromFile); !*v.CacheHit {
		t.Fatal("unchanged file missed the engine its content keys")
	}
	if _, m := counts(s); m != before+1 {
		t.Fatalf("a Path repeat built %d meshes, want 1 (the file is read every time)", m-before)
	}
	checkAliases(t, s.cache)
}

// (c) Once its engine is evicted, a source's alias is gone with it: the
// repeat rebuilds mesh and engine and gets the same answer.
func TestAliasDiesWithItsEngine(t *testing.T) {
	s := NewScheduler(Config{Runners: 1, CacheCap: 1})
	defer s.Stop()
	specA := chanSpec(4, 2, 2, 1, KindSingle, 0, 10)
	specB := chanSpec(5, 2, 2, 1, KindSingle, 0, 10)
	first := runSpec(t, s, specA)
	runSpec(t, s, specB) // evicts A's engine
	valid := specA
	if err := valid.Validate(); err != nil {
		t.Fatal(err)
	}
	srcA, _ := valid.source("")
	if _, ok := s.cache.lookup(srcA); ok {
		t.Fatal("A's alias survived the eviction of its engine")
	}
	checkAliases(t, s.cache)

	again := runSpec(t, s, specA)
	if *again.CacheHit || again.ResultHash != first.ResultHash || again.Engine != first.Engine {
		t.Fatalf("repeat after eviction: cache_hit %v result %s on %s, want a rebuild giving %s on %s",
			*again.CacheHit, again.ResultHash, again.Engine, first.ResultHash, first.Engine)
	}
	if e, m := counts(s); e != 3 || m != 3 {
		t.Fatalf("%d engine builds and %d mesh builds, want 3 and 3 (A, B, A again)", e, m)
	}
	if met := s.Metrics(); met.Evictions.Load() != 2 {
		t.Fatalf("%d evictions, want 2", met.Evictions.Load())
	}
	checkAliases(t, s.cache)
}

// (d) Repeats of two specs race each other's evictions through a
// one-engine cache on two runners: every job leases the engine its
// content keys — never a zero key an alias miss could leave behind — and
// gets that engine's answer.
func TestAliasRepeatsRaceEviction(t *testing.T) {
	s := NewScheduler(Config{Runners: 2, CacheCap: 1, QueueCap: 64})
	defer s.Stop()
	specs := []JobSpec{chanSpec(4, 2, 2, 1, KindSingle, 0, 3), chanSpec(5, 2, 2, 1, KindSingle, 0, 3)}
	var keys, results [2]string
	for i := len(specs) - 1; i >= 0; i-- { // A last: its engine is the cached one
		k, _ := testEngineParts(t, specs[i])
		keys[i] = k.String()
		results[i] = runSpec(t, s, specs[i]).ResultHash
	}

	// The interleaving the race below hits only now and then, forced: A's
	// source resolves to its engine's key, B's run evicts that engine, and
	// the lease that follows builds A's meshes and engine itself.
	j := &Job{ID: "forced", Spec: specs[0]}
	if err := j.Spec.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := s.resolve(j, "")
	if err != nil || !r.hit || r.ms != nil {
		t.Fatalf("A's repeat did not resolve by alias (hit %v, %d meshes, err %v)", r.hit, len(r.ms), err)
	}
	runSpec(t, s, specs[1])
	_, meshes := counts(s)
	x, err := s.leaseEngine(context.Background(), j, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := x.engine.key.String(); got != keys[0] || !j.built {
		t.Fatalf("lease after eviction: engine %s (built %v), want a rebuild of %s", got, j.built, keys[0])
	}
	if _, m := counts(s); m != meshes+1 {
		t.Fatalf("lease after eviction built %d meshes, want 1", m-meshes)
	}
	s.cache.Release(x.engine)
	checkAliases(t, s.cache)
	if _, ok := s.cache.lookup(r.src); !ok {
		t.Fatal("the rebuilt engine is not named by the source that rebuilt it")
	}

	const rounds = 12
	views := make([]JobView, 2*rounds)
	var wg sync.WaitGroup
	for n := range views {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			j, err := s.Submit(specs[n%2])
			if err != nil {
				t.Error(err)
				return
			}
			<-j.Done()
			views[n] = j.View()
		}(n)
	}
	wg.Wait()
	for n, v := range views {
		// A job coalesced onto an identical live one mirrors its leader's
		// view, engine included.
		i := n % 2
		if v.State != StateCompleted || v.ResultHash != results[i] || v.Engine != keys[i] {
			t.Errorf("job %d ended %s (%q): result %s on engine %q, want %s on %q",
				n, v.State, v.Error, v.ResultHash, v.Engine, results[i], keys[i])
		}
	}
	s.cache.mu.Lock()
	_, zero := s.cache.entries[EngineKey{}]
	s.cache.mu.Unlock()
	if zero {
		t.Error("the cache holds an engine under the zero key")
	}
	checkAliases(t, s.cache)
}
