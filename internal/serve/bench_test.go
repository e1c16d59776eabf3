package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"eul3d/internal/solver"
)

// BenchmarkServeTiny times the serving tier's hit path: serial 8×4×4
// one-cycle requests to a warm in-process node over loopback HTTP, and the
// same solve run direct on a prebuilt engine. overhead-µs is what the node
// adds to a request — body decode, queue, engine lease, result encode and
// store, the view and HTTP — beside the solve itself.
// Each iteration alternates rounds of the two, so drift in the host's speed
// reaches both alike.
func BenchmarkServeTiny(b *testing.B) {
	s := NewScheduler(Config{})
	srv := httptest.NewServer(NewAPI(s).Handler())
	defer func() { srv.Close(); s.Stop() }()

	spec := JobSpec{Mesh: MeshSpec{NX: 8, NY: 4, NZ: 4, Seed: 1}, Mach: 0.5, Cycles: 1}
	body, err := json.Marshal(SolveRequest{JobSpec: spec, Wait: true})
	if err != nil {
		b.Fatal(err)
	}
	serve := func() {
		resp, err := http.Post(srv.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil || v.State != StateCompleted {
			b.Fatalf("served request: %v, state %s (%q)", err, v.State, v.Error)
		}
	}

	if err := spec.Validate(); err != nil {
		b.Fatal(err)
	}
	ms, err := spec.BuildMeshes()
	if err != nil {
		b.Fatal(err)
	}
	direct := solver.NewSingleGrid(ms[0], spec.Params())
	defer direct.Close()
	solve := func() {
		direct.Reset()
		if _, err := direct.Run(solver.Options{MaxCycles: 1}); err != nil {
			b.Fatal(err)
		}
	}

	serve() // the node builds its engine once; every timed request is a hit
	solve()
	const rounds, per = 10, 20
	var served, alone time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < rounds; r++ {
			t0 := time.Now()
			for k := 0; k < per; k++ {
				solve()
			}
			t1 := time.Now()
			for k := 0; k < per; k++ {
				serve()
			}
			alone += t1.Sub(t0)
			served += time.Since(t1)
		}
	}
	n := float64(b.N * rounds * per)
	us := func(d time.Duration) float64 { return d.Seconds() * 1e6 / n }
	b.ReportMetric(us(served), "served-µs")
	b.ReportMetric(us(alone), "direct-µs")
	b.ReportMetric(us(served-alone), "overhead-µs")
	if m := s.Metrics(); m.Builds.Load() != 1 || m.MeshBuilds.Load() != 1 {
		b.Fatalf("%d engine and %d mesh builds over %d repeats, want 1 and 1", m.Builds.Load(), m.MeshBuilds.Load(), int(n)+1)
	}
}
