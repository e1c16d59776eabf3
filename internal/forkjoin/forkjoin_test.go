package forkjoin

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestForkRunsEveryWorkerOnce: a region of active workers runs fn once per
// worker index below active, worker 0 on the caller, and the pool is
// reusable for regions of any width up to its size.
func TestForkRunsEveryWorkerOnce(t *testing.T) {
	p := New(4)
	defer p.Shutdown()
	for _, active := range []int{0, 1, 2, 4, 3, 1, 4} {
		var hits [4]atomic.Int32
		p.Fork(func(w int) { hits[w].Add(1) }, active)
		for w := range hits {
			want := int32(0)
			if w < max(active, 1) {
				want = 1
			}
			if got := hits[w].Load(); got != want {
				t.Fatalf("active %d: worker %d ran %d times, want %d", active, w, got, want)
			}
		}
	}
}

// TestForkAllocatesNothing: a region is channel operations and an atomic
// counter on prebuilt state.
func TestForkAllocatesNothing(t *testing.T) {
	p := New(3)
	defer p.Shutdown()
	var sum atomic.Int64
	fn := func(w int) { sum.Add(int64(w)) }
	if a := testing.AllocsPerRun(50, func() { p.Fork(fn, 3) }); a != 0 {
		t.Errorf("Fork allocates %v objects per region, want 0", a)
	}
}

// TestShutdownStopsWorkers: after Shutdown the parked goroutines exit, and a
// second Shutdown is harmless.
func TestShutdownStopsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	p := New(5)
	p.Fork(func(int) {}, 5)
	p.Shutdown()
	p.Shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Shutdown, %d before New", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
