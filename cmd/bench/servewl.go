package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"eul3d/internal/cluster"
	"eul3d/internal/euler"
	"eul3d/internal/meshgen"
	"eul3d/internal/meshio"
	"eul3d/internal/serve"
	"eul3d/internal/solver"
	"eul3d/internal/store"
	"eul3d/internal/trace"
)

const (
	// clients is the number of closed-loop clients: a solver client waits
	// for its answer before it asks again.
	clients = 2
	// listJobs is the length of the job list solve_s is quoted for.
	listJobs = 1000
	// poolSeeds cold and dup mesh seeds are cycled. More than the engine
	// cache holds, so that a seed is evicted again before it comes back and
	// every cold job still builds its engine on the request path, while the
	// results needed as references stay few.
	poolSeeds = 8
	// Between segments, probeRounds times, probeJobs tiny jobs are run
	// directly and then through a node.
	probeJobs   = 10
	probeRounds = 5
	sodL1Limit  = 0.025
)

// mix is the number of list entries of each class in one segment of a
// replay. A dup entry is submitted by both clients at once, so it makes two
// requests.
type mix map[string]int

func (m mix) requests() int {
	n := m["dup"]
	for _, c := range m {
		n += c
	}
	return n
}

var (
	// nodeMix is one segment of the node replay: 200 requests, enough that
	// the 95th percentile has ten samples beyond it.
	nodeMix = mix{"tiny": 121, "hit": 30, "cold": 16, "pooled": 10, "dup": 4, "byhash": 8, "sod": 6, "adapt": 1}
	// clusterMix is one segment of the coordinator replay; every job costs
	// the coordinator's 250 ms poll period, so there is time for few.
	clusterMix = mix{"tiny": 14, "hit": 4, "cold": 2, "pooled": 1, "dup": 1, "byhash": 1, "sod": 1}
	// The -smoke segments hold every class once or twice.
	smokeNodeMix    = mix{"tiny": 4, "hit": 2, "cold": 2, "pooled": 1, "dup": 1, "byhash": 1, "sod": 1, "adapt": 1}
	smokeClusterMix = mix{"tiny": 2, "hit": 1, "cold": 1, "pooled": 1, "dup": 1, "byhash": 1, "sod": 1}
)

// job is one entry of the seeded list.
type job struct {
	class string
	body  []byte // the POST /v1/solve request
	want  string // result hash of the same spec run in process
}

type solveBody struct {
	serve.JobSpec
	Wait bool `json:"wait"`
}

// node is an in-process eul3dd: a scheduler with the default configuration
// behind its HTTP handler on a loopback listener.
type node struct {
	sched *serve.Scheduler
	srv   *http.Server
	url   string
}

func listen(h http.Handler) (*http.Server, string) {
	ln := must(net.Listen("tcp", "127.0.0.1:0"))
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) // returns when stop closes the server
	return srv, "http://" + ln.Addr().String()
}

func startNode() *node {
	n := &node{sched: serve.NewScheduler(serve.Config{})}
	n.srv, n.url = listen(serve.NewAPI(n.sched).Handler())
	return n
}

func (n *node) stop() {
	n.srv.Close()
	n.sched.Stop()
}

// caller is one HTTP client of a node or coordinator.
type caller struct {
	hc   *http.Client
	base string
}

func newCaller(base string) *caller {
	return &caller{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}, base: base}
}

// solve submits a job and waits for its result.
func (c *caller) solve(body []byte) (serve.JobView, int, error) {
	var view serve.JobView
	resp, err := c.hc.Post(c.base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return view, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return view, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return view, len(data), fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return view, len(data), json.Unmarshal(data, &view)
}

// upload stores a blob in the node's or coordinator's artifact store.
func (c *caller) upload(blob []byte) error {
	req, err := http.NewRequest(http.MethodPut, c.base+"/v1/artifacts", bytes.NewReader(blob))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("artifact upload: status %d", resp.StatusCode)
	}
	return nil
}

// jobSet is everything the seed decides: one request per class (a pool of
// them for cold and dup), with its reference result, and the mesh blob the
// byhash class names.
type jobSet struct {
	single map[string]*job
	pool   map[string][]*job
	blob   []byte
	tiny   serve.JobSpec
	sodL1  float64
	adapt  serve.JobView // the reference adaptive run
}

func channelJob(nx, ny, nz int, seed int64, cycles int) serve.JobSpec {
	return serve.JobSpec{Mesh: serve.MeshSpec{NX: nx, NY: ny, NZ: nz, Seed: seed}, Mach: mach, Cycles: cycles}
}

// requests derives the job set from the seed and runs each once on a
// scheduler of its own, in process and without HTTP, for the reference
// result hashes the replays are checked against.
func (b *bench) requests() *jobSet {
	if b.jobs != nil {
		return b.jobs
	}
	seed := b.cfg.seed
	d := b.sz.serveDiv
	js := &jobSet{single: map[string]*job{}, pool: map[string][]*job{}}
	js.tiny = channelJob(8, 4, 4, seed, 1)
	hashed := must(meshgen.Channel(meshgen.DefaultChannel(16/d, 8/d, 6/d, seed+1)))
	js.blob = must(meshio.EncodeMesh(hashed))
	pooled := channelJob(24/d, 12/d, 8/d, seed+2, 10)
	pooled.Engine, pooled.Workers = serve.KindSM, 2

	ref := serve.NewScheduler(serve.Config{})
	defer ref.Stop()
	must(ref.Store().Put(js.blob))
	reference := func(class string, spec serve.JobSpec) (*job, serve.JobView) {
		j := must(ref.Submit(spec))
		<-j.Done()
		v := j.View()
		if v.State != serve.StateCompleted || v.ResultHash == "" {
			check(fmt.Errorf("reference %s job ended %s: %s", class, v.State, v.Error))
		}
		return &job{class: class, body: must(json.Marshal(solveBody{spec, true})), want: v.ResultHash}, v
	}
	js.single["tiny"], _ = reference("tiny", js.tiny)
	js.single["hit"], _ = reference("hit", channelJob(12/d, 6/d, 4/d, seed+3, 20))
	js.single["pooled"], _ = reference("pooled", pooled)
	js.single["byhash"], _ = reference("byhash", serve.JobSpec{Mesh: serve.MeshSpec{Hash: store.Sum(js.blob)}, Mach: mach, Cycles: 5})
	var sod serve.JobView
	js.single["sod"], sod = reference("sod", serve.JobSpec{Scenario: "sod", Cycles: b.sz.sodSteps})
	js.sodL1 = sod.Diagnostics.L1Density
	js.single["adapt"], js.adapt = reference("adapt", serve.JobSpec{Scenario: "sod", Cycles: b.sz.sodSteps, Adapt: &serve.AdaptSpec{Interval: b.sz.adaptEvery}})
	for i := 0; i < poolSeeds; i++ {
		cold, _ := reference("cold", channelJob(16/d, 8/d, 6/d, seed+100+int64(i), 5))
		dup, _ := reference("dup", channelJob(16/d, 8/d, 6/d, seed+200+int64(i), 5))
		js.pool["cold"] = append(js.pool["cold"], cold)
		js.pool["dup"] = append(js.pool["dup"], dup)
	}
	b.jobs = js
	return js
}

// segment returns the n-th segment of the job list: the mix's entries in a
// seeded order, the adaptive job first so that its second of work overlaps
// the rest instead of trailing it.
func (js *jobSet) segment(m mix, seed int64, n int) []*job {
	var list []*job
	for _, class := range serveClasses {
		for i := 0; i < m[class]; i++ {
			if pool := js.pool[class]; pool != nil {
				list = append(list, pool[(n*m[class]+i)%len(pool)])
			} else {
				list = append(list, js.single[class])
			}
		}
	}
	rng := rand.New(rand.NewSource(seed<<16 + int64(n)))
	rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	for i, j := range list {
		if j.class == "adapt" {
			list[0], list[i] = list[i], list[0]
		}
	}
	return list
}

// meet is a dup job held by the client that drew it until the other client
// joins, so that both submit the same spec at once and the scheduler
// coalesces them.
type meet struct {
	j      *job
	owner  int
	joined chan struct{}
}

// queue hands the entries of one segment to the clients.
type queue struct {
	mu      sync.Mutex
	jobs    []*job
	next    int
	pending *meet
}

// take returns the next entry for a client. A client always joins the other
// client's pending dup before it draws anything new, and only one dup can
// be pending (its owner is blocked), so the two never wait on each other.
func (q *queue) take(client int) (*job, *meet) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if m := q.pending; m != nil && m.owner != client {
		q.pending = nil
		return m.j, m
	}
	if q.next == len(q.jobs) {
		return nil, nil
	}
	j := q.jobs[q.next]
	q.next++
	if j.class == "dup" {
		q.pending = &meet{j: j, owner: client, joined: make(chan struct{})}
		return j, q.pending
	}
	return j, nil
}

// answer is one completed request.
type answer struct {
	class   string
	seconds float64
	bytes   int
}

// replay pushes one segment through target from the two clients and returns
// every answer and the segment's wall time. Refused, failed and wrong
// answers are counted as failed operations.
func (b *bench) replay(tk [clients]*trace.Track, target *caller, jobs []*job, seg int) ([]answer, float64) {
	q := &queue{jobs: jobs}
	var mu sync.Mutex
	var out []answer
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				j, m := q.take(c)
				if j == nil {
					return
				}
				if m != nil && m.owner == c {
					<-m.joined
				} else if m != nil {
					close(m.joined)
				}
				t0 := time.Now()
				view, n, err := target.solve(j.body)
				a := answer{class: j.class, seconds: time.Since(t0).Seconds(), bytes: n}
				b.rec.span(tk[c], "serve."+j.class, t0, int64(seg))
				mu.Lock()
				b.attempted++
				switch {
				case err != nil:
					b.failf("%s request: %v", j.class, err)
				case view.State != serve.StateCompleted:
					b.failf("%s request ended %s: %s", j.class, view.State, view.Error)
				case view.ResultHash != j.want:
					b.failf("%s request: result hash %.12s, in process %.12s", j.class, view.ResultHash, j.want)
				case j.class == "sod" && b.sz.sodSteps == 0 && view.Diagnostics.L1Density > sodL1Limit:
					b.failf("sod request: L1 density error %.4f above %.3f", view.Diagnostics.L1Density, sodL1Limit)
				}
				out = append(out, a)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(start).Seconds()
}

// probe is the pair of measurements taken between the segments of a replay:
// probeJobs tiny jobs straight through solver.Steady.Run on a prebuilt
// engine — what the request costs with no service around it — and as many
// through a node over HTTP from one client, each group bracketed by
// reference samples. The second is also what the segments are scaled by: it
// is the same kind of work, it takes milliseconds, and fifty of them fit in
// the time one pair of reference samples around a two-second segment would
// take, so it tracks the host's speed where that pair cannot.
type probe struct {
	b       *bench
	direct  *solver.Steady
	node    *caller
	body    []byte
	directT series
	servedT series
}

func (b *bench) newProbe(js *jobSet, node *caller) *probe {
	tiny := js.tiny
	check(tiny.Validate())
	ms := must(tiny.BuildMeshes())
	return &probe{b: b, direct: solver.NewSingleGrid(ms[0], euler.DefaultParams(mach, 0)), node: node, body: js.single["tiny"].body}
}

// burst runs the probe and returns the mean raw time of a served group.
func (p *probe) burst() float64 {
	first := len(p.servedT.raw)
	for r := 0; r < probeRounds; r++ {
		p.b.host.time(1, &p.directT, func() {
			for i := 0; i < probeJobs; i++ {
				p.direct.Reset()
				must(p.direct.Run(solver.Options{MaxCycles: 1}))
			}
		})
		p.b.host.time(1, &p.servedT, func() {
			for i := 0; i < probeJobs; i++ {
				if _, _, err := p.node.solve(p.body); err != nil {
					p.b.failf("tiny request: %v", err)
				}
			}
		})
	}
	sum := 0.0
	for _, t := range p.servedT.raw[first:] {
		sum += t
	}
	return sum / probeRounds
}

// replayStats are the per-segment series of a replay, each measurement
// paired with the probe bursts before and after its segment.
type replayStats struct {
	p50, p95, wall series
	class          map[string]*series
	raw            []float64 // every latency, unscaled
	bytes          []float64
	unit           float64 // a served probe group at reference-host speed
}

// quiet is s at reference-host speed: as a multiple of the probe groups
// around its segments, times what a probe group takes there.
func (st *replayStats) quiet(s *series) float64 { return s.ratio() * st.unit }

// replayFor replays segments of mix through target until window has passed
// (at least one). The garbage of each segment is collected before the next
// starts, outside any timing, so that every segment starts from the same
// heap and the resident-set peak does not depend on where in a segment a
// collection happened to fall.
func (b *bench) replayFor(tk [clients]*trace.Track, target *caller, js *jobSet, m mix, window time.Duration, pr *probe, between func(frac float64)) *replayStats {
	st := &replayStats{class: map[string]*series{}}
	for _, c := range serveClasses {
		st.class[c] = &series{}
	}
	start := time.Now()
	before := pr.burst()
	for seg := 0; seg == 0 || time.Since(start) < window; seg++ {
		answers, wall := b.replay(tk, target, js.segment(m, b.cfg.seed, seg), seg)
		runtime.GC()
		after := pr.burst()
		ref := 0.5 * (before + after)
		before = after
		var lat []float64
		for _, a := range answers {
			lat = append(lat, a.seconds)
			st.class[a.class].add(a.seconds, ref)
			st.bytes = append(st.bytes, float64(a.bytes))
		}
		st.raw = append(st.raw, lat...)
		st.p50.add(median(lat), ref)
		st.p95.add(quantile(lat, 0.95), ref)
		st.wall.add(wall, ref)
		between(time.Since(start).Seconds() / window.Seconds())
	}
	st.unit = pr.servedT.quiet()
	return st
}

func clientTracks(rec *recorder, prefix string) (tk [clients]*trace.Track) {
	for c := range tk {
		tk[c] = rec.track(fmt.Sprintf("%s/client%d", prefix, c))
	}
	return tk
}

// runServeMix replays the seeded job list against one in-process eul3dd.
func (b *bench) runServeMix(window time.Duration) e2e {
	tk := b.rec.track("serve_mix")
	js := b.requests()

	// Set-up: the node listening, the mesh the byhash class names generated,
	// encoded and uploaded, and one job completed.
	bringUp := func() (*node, *caller) {
		n := startNode()
		c := newCaller(n.url)
		hashed := must(meshgen.Channel(meshgen.DefaultChannel(16/b.sz.serveDiv, 8/b.sz.serveDiv, 6/b.sz.serveDiv, b.cfg.seed+1)))
		check(c.upload(must(meshio.EncodeMesh(hashed))))
		_, _, err := c.solve(js.single["tiny"].body)
		check(err)
		return n, c
	}
	var setup series
	var nd *node
	var target *caller
	b.host.time(1, &setup, func() { b.rec.do(tk, "setup", 0, func() { nd, target = bringUp() }) })
	defer nd.stop()

	pr := b.newProbe(js, target)
	st := b.replayFor(clientTracks(b.rec, "serve_mix"), target, js, b.sz.nodeMix, window, pr, b.spaced(tk, &setup, func() {
		n, _ := bringUp()
		n.stop()
	}))

	out := e2e{
		setup:   setup.quiet(),
		op:      st.quiet(&st.p50) * 1e3,
		solve:   st.quiet(&st.wall) * listJobs / float64(b.sz.nodeMix.requests()),
		speedup: pr.directT.quiet() / pr.servedT.quiet(),
		rss:     peakRSSMB(),
	}
	if !b.layers {
		return out
	}

	for _, c := range serveClasses {
		b.res["serve.class_"+c+"_ms"] = st.quiet(st.class[c]) * 1e3
	}
	met := nd.sched.Metrics()
	b.res["serve.latency_ms_p50"] = out.op
	b.res["serve.latency_ms_p95"] = st.quiet(&st.p95) * 1e3
	b.res["serve.latency_ms_p50_raw"] = median(st.raw) * 1e3
	b.res["serve.jobs_per_s"] = float64(b.sz.nodeMix.requests()) / st.quiet(&st.wall)
	b.res["serve.overhead_ms"] = (pr.servedT.quiet() - pr.directT.quiet()) / probeJobs * 1e3
	b.res["serve.cache_hit_rate"] = met.HitRate()
	b.res["serve.coalesce_attached"] = float64(met.CoalesceAttach.Load())
	b.res["serve.response_bytes_p50"] = median(st.bytes)
	b.res["scenario.sod_l1"] = js.sodL1
	var rebuildNS, cells float64
	for _, e := range js.adapt.AdaptEpochs {
		rebuildNS += float64(e.RebuildNS)
		cells += float64(e.CellsAfter - e.CellsBefore)
	}
	b.res["adapt.rebuild_ms_per_epoch"] = rebuildNS / float64(len(js.adapt.AdaptEpochs)) / 1e6
	b.res["adapt.cells_refined"] = cells

	big := must(meshgen.Channel(meshgen.DefaultChannel(b.sz.dist[0], b.sz.dist[1], b.sz.dist[2], b.cfg.seed)))
	var blob []byte
	b.layerMS(tk, "meshio.encode_mesh_ms", func() { blob = must(meshio.EncodeMesh(big)) })
	mem := store.NewMemory()
	var put, get series
	for i := 0; i < layerRepeats; i++ {
		blob[len(blob)-1] ^= byte(i + 1) // new content, so the store cannot deduplicate
		var hash string
		b.host.time(1, &put, func() { b.rec.do(tk, "store.Put", int64(i), func() { hash = must(mem.Put(blob)) }) })
		b.host.time(1, &get, func() { b.rec.do(tk, "store.Get", int64(i), func() { must(mem.Get(hash)) }) })
	}
	b.res["store.put_mb_s"] = float64(len(blob)) / put.quiet() / 1e6
	b.res["store.get_mb_s"] = float64(len(blob)) / get.quiet() / 1e6
	return out
}

// runCluster replays a short list through an in-process eul3dc with the
// default configuration in front of two nodes. It has no end-to-end metric
// of its own (see README), so it runs in the traced pass only.
func (b *bench) runCluster(window time.Duration) {
	tk := b.rec.track("cluster")
	js := b.requests()
	var nodes [2]*node
	var coord *cluster.Coordinator
	var srv *http.Server
	var target *caller
	b.rec.do(tk, "setup", 0, func() {
		coord = cluster.New(cluster.Config{})
		for i := range nodes {
			nodes[i] = startNode()
			check(coord.AddNode(fmt.Sprintf("n%d", i), nodes[i].url))
		}
		var url string
		srv, url = listen(cluster.NewAPI(coord).Handler())
		target = newCaller(url)
		check(target.upload(js.blob))
		// The first heartbeat of each node marks it routable.
		for healthy := 0; healthy < len(nodes); {
			healthy = 0
			for _, v := range coord.NodeViews() {
				if v.Status == cluster.StatusHealthy.String() {
					healthy++
				}
			}
			time.Sleep(time.Millisecond)
		}
	})
	defer func() {
		srv.Close()
		coord.Close()
		for _, n := range nodes {
			n.stop()
		}
	}()

	st := b.replayFor(clientTracks(b.rec, "cluster"), target, js, b.sz.clusterMix, window, b.newProbe(js, newCaller(nodes[0].url)), func(float64) {})
	met := coord.Metrics()
	b.res["cluster.latency_ms_p50"] = st.quiet(&st.p50) * 1e3
	b.res["cluster.jobs_per_s"] = float64(b.sz.clusterMix.requests()) / st.quiet(&st.wall)
	b.res["cluster.overhead_ms"] = st.quiet(st.class["tiny"])*1e3 - b.res["serve.class_tiny_ms"]
	b.res["cluster.dispatches"] = float64(met.Dispatches.Load())
	b.res["cluster.retries"] = float64(met.Retries.Load())
	b.res["cluster.coalesce_attached"] = float64(met.CoalesceAttach.Load())
	b.res["cluster.artifact_pushes"] = float64(met.ArtifactPushes.Load())
}
