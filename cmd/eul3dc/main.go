// Command eul3dc is the cluster coordinator: an HTTP front end over
// internal/cluster that routes solve jobs across a fleet of eul3dd nodes.
// Jobs are consistent-hashed by their engine identity (the problem and the
// worker count; the engine name is only a default for those, see eul3dd)
// so hot meshes pin to nodes with warm engines (cold jobs steal to the
// least-loaded node), and concurrent jobs that differ only in engine name
// or workers coalesce into one run;
// every node is health-checked with liveness probes, a missed-beat
// threshold and a flap-quarantining circuit breaker; and running jobs'
// periodic checkpoints are pulled off their nodes so that when a node is
// SIGKILLed or drained its jobs resume — bitwise identically — on a
// surviving node. With no routable node the coordinator sheds load with
// Retry-After instead of queueing.
//
// Usage:
//
//	eul3dd -addr :8081 -state-dir /tmp/n1 -checkpoint-every 25 &
//	eul3dd -addr :8082 -state-dir /tmp/n2 -checkpoint-every 25 &
//	eul3dc -addr :8080 -nodes n1=http://127.0.0.1:8081,n2=http://127.0.0.1:8082
//
//	curl -s localhost:8080/v1/solve -d '{"mesh":{"nx":16,"ny":8,"nz":6,"seed":17},
//	    "mach":0.768,"alpha":1.116,"engine":"sm","workers":2,"cycles":500}'
//	curl -s localhost:8080/v1/nodes
//	curl -s localhost:8080/metrics
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"eul3d/internal/cluster"
	"eul3d/internal/trace"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address (host:0 picks a random port)")
		nodes     = flag.String("nodes", "", "comma-separated nodes, name=url or bare url (more can register via POST /v1/nodes)")
		heartbeat = flag.Duration("heartbeat", time.Second, "liveness probe period")
		probeTO   = flag.Duration("probe-timeout", 0, "per-probe budget (default heartbeat/2)")
		missBeats = flag.Int("miss-threshold", 3, "consecutive missed beats before a node is unhealthy")
		recover_  = flag.Int("recover-beats", 2, "good beats required before a failed node is routable again")
		fetchInt  = flag.Duration("fetch-interval", 250*time.Millisecond, "per-job view + checkpoint poll period")
		retries   = flag.Int("retry-budget", 5, "dispatch attempts per placement round")
		quiet     = flag.Bool("quiet", false, "suppress per-job logging")
		doTrace   = flag.Bool("trace", false, "enable the flight recorder; dump at GET /debug/trace")
		traceRing = flag.Int("trace-ring", 4096, "flight-recorder events retained per track (with -trace)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "eul3dc: ", log.LstdFlags)
	if *quiet {
		logger.SetOutput(io.Discard)
	}
	var tracer *trace.Tracer
	if *doTrace {
		tracer = trace.New(*traceRing)
	}
	coord := cluster.New(cluster.Config{
		HeartbeatInterval: *heartbeat,
		ProbeTimeout:      *probeTO,
		MissThreshold:     *missBeats,
		RecoverBeats:      *recover_,
		FetchInterval:     *fetchInt,
		RetryBudget:       *retries,
		Log:               logger,
		Trace:             tracer,
	})
	defer coord.Close()

	for i, spec := range splitNonEmpty(*nodes) {
		name, url := fmt.Sprintf("n%d", i+1), spec
		if eq := strings.IndexByte(spec, '='); eq >= 0 {
			name, url = spec[:eq], spec[eq+1:]
		}
		if err := coord.AddNode(name, url); err != nil {
			logger.Fatalf("registering node %s: %v", spec, err)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	// The listening line goes to stdout unconditionally so wrappers (and
	// the smoke test) can discover a randomly chosen port.
	fmt.Printf("eul3dc listening on %s\n", ln.Addr())
	os.Stdout.Sync()

	srv := &http.Server{Handler: cluster.NewAPI(coord).Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		logger.Printf("%s: shutting down", sig)
		srv.Close()
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Fatal(err)
		}
	}
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
