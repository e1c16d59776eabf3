package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"eul3d/internal/trace"
)

// recorder is the harness-owned span recorder of the traced pass: one span
// per call into a package's public API, kept in memory by the flight
// recorder and written as Chrome-trace JSON when the run ends. A span's
// parent is the span that encloses it on the same track; its argument is the
// run or request id. A nil recorder records nothing, which is how the
// untraced pass runs.
type recorder struct {
	tr *trace.Tracer
}

// spanRing is the number of spans kept per track; the longest track (one
// serve client) records a few thousand in a traced window.
const spanRing = 1 << 14

func newRecorder() *recorder { return &recorder{tr: trace.New(spanRing)} }

// track returns the named timeline (nil on a nil recorder).
func (r *recorder) track(name string) *trace.Track {
	if r == nil {
		return nil
	}
	return r.tr.Track(name)
}

// span records [from, now) on tk under name.
func (r *recorder) span(tk *trace.Track, name string, from time.Time, id int64) {
	if r == nil {
		return
	}
	tk.Span(r.tr.Phase(name), from, time.Now(), id)
}

// do runs f inside a span.
func (r *recorder) do(tk *trace.Track, name string, id int64, f func()) {
	t0 := time.Now()
	f()
	r.span(tk, name, t0, id)
}

// write dumps the trace under .bench_build/ and checks that it loads.
func (r *recorder) write(workload string) (string, error) {
	path := filepath.Join(".bench_build", "trace-"+workload+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	if err := r.tr.WriteChromeFile(path); err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if n, err := trace.Validate(f); err != nil {
		return "", fmt.Errorf("trace %s does not load: %w", path, err)
	} else if n == 0 {
		return "", fmt.Errorf("trace %s holds no spans", path)
	}
	return path, nil
}
