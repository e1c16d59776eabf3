package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

var origin = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func at(us int64) time.Time { return origin.Add(time.Duration(us) * time.Microsecond) }

func TestRingKeepsLastEvents(t *testing.T) {
	tr := NewStartingAt(16, origin)
	tk := tr.Track("w0")
	ph := tr.Phase("step")
	for i := 0; i < 40; i++ {
		tk.Span(ph, at(int64(i)*10), at(int64(i)*10+5), int64(i))
	}
	evs := tk.Events()
	if len(evs) != 16 {
		t.Fatalf("retained %d events, want 16", len(evs))
	}
	// Oldest retained should be #24 (40 written, ring of 16), newest #39.
	if evs[0].Arg != 24 || evs[15].Arg != 39 {
		t.Fatalf("ring window wrong: first arg %d last arg %d", evs[0].Arg, evs[15].Arg)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("events out of order at %d", i)
		}
	}
}

func TestTrackRegistrationIdempotentAndBounded(t *testing.T) {
	tr := NewStartingAt(16, origin)
	a := tr.Track("a")
	if tr.Track("a") != a {
		t.Fatal("re-registering a name should return the same track")
	}
	for i := 1; i < DefaultMaxTracks; i++ {
		if tr.Track(fmt.Sprintf("t%d", i)) == nil {
			t.Fatalf("track %d refused below the bound of %d", i+1, DefaultMaxTracks)
		}
	}
	if tr.Track("a") != a {
		t.Fatal("re-registering a name at the bound should return the same track")
	}
	if tk := tr.Track("past"); tk != nil {
		t.Fatal("track past the bound should be nil")
	}
	if tr.Refused() != 1 {
		t.Fatalf("refused = %d, want 1", tr.Refused())
	}
	// Dropped tracks must be safe to use.
	var nilTk *Track
	nilTk.Span(0, at(0), at(1), 0)
	nilTk.Instant(0, at(0), 0)
	if nilTk.Len() != 0 || nilTk.Events() != nil || nilTk.Name() != "" {
		t.Fatal("nil track accessors should be inert")
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tk := tr.Track("x"); tk != nil {
		t.Fatal("nil tracer should hand out nil tracks")
	}
	if tr.Phase("p") != 0 || tr.PhaseName(0) != "?" {
		t.Fatal("nil tracer phase table should be inert")
	}
	if tr.Tracks() != nil || tr.Refused() != 0 {
		t.Fatal("nil tracer accessors should be inert")
	}
	if err := tr.WriteChrome(&strings.Builder{}); err == nil {
		t.Fatal("WriteChrome on nil tracer should error")
	}
}

func TestSpanAndInstantZeroAlloc(t *testing.T) {
	tr := New(64)
	tk := tr.Track("w0")
	ph := tr.Phase("kernel")
	from := time.Now()
	to := from.Add(time.Millisecond)
	if n := testing.AllocsPerRun(100, func() {
		tk.Span(ph, from, to, 3)
		tk.Instant(ph, to, 4)
	}); n != 0 {
		t.Fatalf("Span+Instant allocate %v times per run, want 0", n)
	}
	var nilTk *Track
	if n := testing.AllocsPerRun(100, func() {
		nilTk.Span(ph, from, to, 3)
	}); n != 0 {
		t.Fatalf("disabled Span allocates %v times per run, want 0", n)
	}
}

func TestConcurrentWritersAndReaders(t *testing.T) {
	tr := New(128)
	ph := tr.Phase("work")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		tk := tr.TrackCap("w"+string(rune('0'+w)), 32)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				now := time.Now()
				tk.Span(ph, now, now, int64(i))
			}
		}()
	}
	// Reader snapshots rings and exports while writers run, as the live
	// /debug/trace endpoint does.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			var b strings.Builder
			if err := tr.WriteChrome(&b); err != nil {
				t.Errorf("WriteChrome: %v", err)
				return
			}
			if _, err := Validate(strings.NewReader(b.String())); err != nil {
				t.Errorf("Validate: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":       `{`,
		"no traceEvents": `{"foo":[]}`,
		"empty name":     `{"traceEvents":[{"name":"","ph":"X","pid":1,"tid":0,"ts":0,"dur":1}]}`,
		"missing tid":    `{"traceEvents":[{"name":"a","ph":"X","pid":1,"ts":0,"dur":1}]}`,
		"missing dur":    `{"traceEvents":[{"name":"a","ph":"X","pid":1,"tid":0,"ts":0}]}`,
		"negative dur":   `{"traceEvents":[{"name":"a","ph":"X","pid":1,"tid":0,"ts":0,"dur":-1}]}`,
		"unknown ph":     `{"traceEvents":[{"name":"a","ph":"Z","pid":1,"tid":0,"ts":0}]}`,
		"bad scope":      `{"traceEvents":[{"name":"a","ph":"i","pid":1,"tid":0,"ts":0,"s":"x"}]}`,
	}
	for label, in := range cases {
		if _, err := Validate(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Validate accepted malformed input", label)
		}
	}
	ok := `{"traceEvents":[
	  {"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"w0"}},
	  {"name":"a","ph":"X","pid":1,"tid":0,"ts":0,"dur":1,"args":{"arg":0}},
	  {"name":"b","ph":"i","pid":1,"tid":0,"ts":5,"s":"t"}]}`
	n, err := Validate(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("Validate rejected well-formed input: %v", err)
	}
	if n != 2 {
		t.Fatalf("Validate counted %d non-metadata events, want 2", n)
	}
}

func TestHistBuckets(t *testing.T) {
	var h Hist
	h.Observe(50 * time.Microsecond)  // bucket 0 (≤100µs)
	h.Observe(100 * time.Microsecond) // bucket 0 boundary
	h.Observe(150 * time.Microsecond) // bucket 1 (≤200µs)
	h.Observe(time.Hour)              // +Inf
	h.Observe(-time.Second)           // clamped to 0, bucket 0
	snap := h.Snapshot()
	if snap[0] != 3 || snap[1] != 1 || snap[NumBuckets] != 1 {
		t.Fatalf("bucket counts %v", snap)
	}
	if h.Count() != 5 {
		t.Fatalf("count %d, want 5", h.Count())
	}
	if n := testing.AllocsPerRun(100, func() { h.Observe(time.Millisecond) }); n != 0 {
		t.Fatalf("Observe allocates %v times per run, want 0", n)
	}
	var nilH *Hist
	nilH.Observe(time.Second)
	if nilH.Count() != 0 || nilH.Sum() != 0 {
		t.Fatal("nil Hist should be inert")
	}
}

func TestHistWriteProm(t *testing.T) {
	var h Hist
	h.Observe(50 * time.Microsecond)
	h.Observe(300 * time.Microsecond)
	h.Observe(time.Hour)
	var b strings.Builder
	h.WriteProm(&b, "eul3dd_job_run_seconds", "job run time")
	out := b.String()
	for _, want := range []string{
		"# TYPE eul3dd_job_run_seconds histogram",
		`eul3dd_job_run_seconds_bucket{le="0.0001"} 1`,
		`eul3dd_job_run_seconds_bucket{le="0.0004"} 2`,
		`eul3dd_job_run_seconds_bucket{le="+Inf"} 3`,
		"eul3dd_job_run_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Cumulative: every finite bucket ≤ the +Inf total of 3.
	if strings.Count(out, "_bucket{") != NumBuckets+1 {
		t.Fatalf("want %d bucket lines, got %d", NumBuckets+1, strings.Count(out, "_bucket{"))
	}
}
