// Command eul3dd is the solver-as-a-service daemon: an HTTP front end
// over internal/serve's job scheduler and engine cache. Solve requests
// are queued with priorities and deadlines, run on cached engines (mesh +
// discretization + colorings + parked worker pool, shared across jobs of
// the same mesh), and observed or cancelled mid-flight. On SIGTERM the
// server drains gracefully: each in-flight job's resume record (the
// meshio checkpoint format) is written to -state-dir beside its spec, and
// the job resumes — bitwise identically — when the server restarts.
//
// A job runs one of two grid shapes: the single grid ("levels" 1) or the
// FAS multigrid ("levels" 2 to 8, "cycle" v or w). The engine names are
// defaults for them: "single" and "sm" one level, "mg" and "smmg" three;
// "single" and "mg" one worker, "sm" and "smmg" two. An explicit "levels"
// or "workers" is honoured on every name. Workers change speed, never the
// answer: jobs that differ only in engine name or workers coalesce into
// one run and return the same result_hash. Every running job holds its
// workers in the -worker-budget.
//
// Usage:
//
//	eul3dd -addr :8080 -state-dir /var/lib/eul3dd
//
//	curl -s localhost:8080/v1/solve -d '{"mesh":{"nx":16,"ny":8,"nz":6,"seed":17},
//	    "mach":0.768,"alpha":1.116,"engine":"sm","workers":4,"cycles":200}'
//	curl -s localhost:8080/v1/jobs/<id>
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"eul3d/internal/serve"
	"eul3d/internal/store"
	"eul3d/internal/trace"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address (host:0 picks a random port)")
		queueCap     = flag.Int("queue-cap", 16, "queued jobs admitted before 429s")
		runners      = flag.Int("runners", 2, "jobs solving concurrently")
		workerBudget = flag.Int("worker-budget", 8, "total workers across concurrent jobs (a one-worker job holds one)")
		cacheCap     = flag.Int("cache-cap", 4, "idle engines kept warm")
		stateDir     = flag.String("state-dir", "", "per interrupted job, its resume record <id>.ckpt and spec <id>.job.json; also the artifact store's disk tier unless -artifact-dir is set (empty disables resume)")
		ckptEvery    = flag.Int("checkpoint-every", 0, "checkpoint running jobs every N cycles (with -state-dir; survives SIGKILL, enables cluster handoff)")
		artDir       = flag.String("artifact-dir", "", "artifact-store disk tier (empty: <state-dir>/artifacts, or memory only without -state-dir)")
		artMemMB     = flag.Int("artifact-mem-mb", 256, "artifact-store memory budget in MiB")
		artDiskMB    = flag.Int("artifact-disk-mb", 2048, "artifact-store disk budget in MiB (with -artifact-dir)")
		drainWait    = flag.Duration("drain-timeout", 30*time.Second, "grace period for SIGTERM drain")
		quiet        = flag.Bool("quiet", false, "suppress per-job logging")
		doTrace      = flag.Bool("trace", false, "enable the flight recorder; dump it as Chrome trace JSON at GET /debug/trace")
		traceRing    = flag.Int("trace-ring", 4096, "flight-recorder events retained per track (with -trace)")
		debug        = flag.Bool("debug", false, "expose Go profiling endpoints under /debug/pprof/")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "eul3dd: ", log.LstdFlags)
	if *quiet {
		logger.SetOutput(io.Discard)
	}
	if *stateDir != "" {
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			logger.Fatal(err)
		}
	}

	var tracer *trace.Tracer
	if *doTrace {
		tracer = trace.New(*traceRing)
	}
	if *artDir == "" && *stateDir != "" {
		// The meshes adapted jobs' records name must survive the restart
		// that resumes them.
		*artDir = filepath.Join(*stateDir, "artifacts")
	}
	art, err := store.New(store.Config{
		Dir:        *artDir,
		MemBudget:  int64(*artMemMB) << 20,
		DiskBudget: int64(*artDiskMB) << 20,
	})
	if err != nil {
		logger.Fatalf("opening artifact store: %v", err)
	}
	sched := serve.NewScheduler(serve.Config{
		QueueCap:        *queueCap,
		Runners:         *runners,
		WorkerBudget:    *workerBudget,
		CacheCap:        *cacheCap,
		StateDir:        *stateDir,
		CheckpointEvery: *ckptEvery,
		Store:           art,
		Log:             logger,
		Trace:           tracer,
	})
	if n, err := sched.Recover(); err != nil {
		logger.Fatalf("recovering state dir: %v", err)
	} else if n > 0 {
		logger.Printf("resumed %d interrupted job(s) from %s", n, *stateDir)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	// The listening line goes to stdout unconditionally so wrappers (and
	// the smoke test) can discover a randomly chosen port.
	fmt.Printf("eul3dd listening on %s\n", ln.Addr())
	os.Stdout.Sync()

	var handler http.Handler = serve.NewAPI(sched).Handler()
	if *debug {
		// Mount the API beside the Go profiling endpoints; with the
		// pprof.Labels the scheduler sets on solver goroutines, CPU and
		// goroutine profiles break down by job and engine.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		logger.Printf("profiling endpoints enabled under /debug/pprof/")
	}
	srv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		logger.Printf("%s: draining (checkpointing in-flight jobs)", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		done := make(chan struct{})
		go func() { sched.Drain(); close(done) }()
		select {
		case <-done:
			logger.Printf("drain complete")
		case <-ctx.Done():
			logger.Printf("drain timed out after %s", *drainWait)
		}
		srv.Shutdown(ctx)
		cancel()
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Fatal(err)
		}
	}
}
