package forkjoin

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
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

// TestForkStress runs every transition of a worker — parked to polling,
// polling to taken, polling to parked — and both joins, under the race
// detector (make race): two pools fork regions of random widths at once,
// with pauses longer than a poll, beside a goroutine that computes in
// bursts, on two processors. Every region must run each of its workers exactly once.
func TestForkStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // computes in bursts, so that the pools sometimes find both processors free
		defer wg.Done()
		x := 1.0
		for !stop.Load() {
			for start := time.Now(); time.Since(start) < 3*PollFor; {
				x = x*0.999 + 1
			}
			time.Sleep(3 * PollFor)
		}
		_ = x
	}()
	var forks sync.WaitGroup
	for seed := int64(1); seed <= 2; seed++ {
		forks.Add(1)
		go func() {
			defer forks.Done()
			const n = 3
			p := New(n)
			defer p.Shutdown()
			rng := rand.New(rand.NewSource(seed))
			var hits [n]atomic.Int32
			var lag time.Duration // worker 0's extra work: the others may finish first
			fn := func(w int) {
				hits[w].Add(1)
				for start := time.Now(); w == 0 && time.Since(start) < lag; {
				}
			}
			for r := 0; r < 3000; r++ {
				active := 1 + rng.Intn(n)
				lag = time.Duration(rng.Intn(3)) * 20 * time.Microsecond
				p.Fork(fn, active)
				for w := range hits {
					want := int32(0)
					if w < active {
						want = 1
					}
					if got := hits[w].Swap(0); got != want {
						t.Errorf("seed %d region %d, active %d: worker %d ran %d times, want %d", seed, r, active, w, got, want)
						return
					}
				}
				if rng.Intn(20) == 0 {
					// The workers give up polling and park, and the other
					// pool has the processors to itself for a while.
					time.Sleep(time.Duration(1+rng.Intn(10)) * PollFor)
				}
			}
		}()
	}
	forks.Wait()
	stop.Store(true)
	wg.Wait()
	// A worker that was polling when its pool shut down stays counted
	// until it notices.
	for deadline := time.Now().Add(5 * time.Second); busy.Load() != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if b := busy.Load(); b != 0 {
		t.Errorf("%d goroutines counted busy after every pool has shut down", b)
	}
}

// TestPollGate: a worker decides before its join whether to poll, and it
// polls only while no more goroutines are busy than there are processors.
// On one processor the forker and the worker are already too many; on two,
// a region beside another pool's open region makes three, and so does one
// beside a sequential engine that is running.
func TestPollGate(t *testing.T) {
	p := New(2)
	defer p.Shutdown()
	fn := func(int) {}
	polls := func() bool { return p.workers[1].state.Load() == polling }

	prev := runtime.GOMAXPROCS(1)
	for r := 0; r < 50; r++ {
		if p.Fork(fn, 2); polls() {
			t.Fatalf("GOMAXPROCS 1, region %d: the worker polls", r)
		}
	}
	runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)

	// A worker that polls after a region is usually still polling when
	// Fork returns; it stops by itself only after PollFor.
	seen := false
	for r := 0; r < 50 && !seen; r++ {
		p.Fork(fn, 2)
		seen = polls()
	}
	if !seen {
		t.Error("GOMAXPROCS 2: the worker never polls after a region")
	}

	other := New(2)
	defer other.Shutdown()
	inside, release := make(chan struct{}), make(chan struct{})
	go other.Fork(func(w int) {
		if w == 0 {
			close(inside)
			<-release
		}
	}, 2)
	<-inside
	for r := 0; r < 50; r++ {
		if p.Fork(fn, 2); polls() {
			t.Fatalf("beside another pool's region, region %d: the worker polls", r)
		}
	}
	close(release)
	other.Shutdown()
	for deadline := time.Now().Add(5 * time.Second); busy.Load() != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}

	// A sequential engine's regions renew a lease that counts as one more
	// busy goroutine. A stall longer than the lease lets the worker poll,
	// so it has to stay off in one region of fifty, not in all of them.
	seq := New(1)
	defer seq.Shutdown()
	off := false
	for r := 0; r < 50 && !off; r++ {
		for i := 0; i < seqEvery; i++ {
			seq.Fork(fn, 1)
		}
		p.Fork(fn, 2)
		off = !polls()
	}
	if !off {
		t.Error("beside a sequential engine's regions, the worker polls")
	}
}

// TestJoinLooksForStart: a joiner whose taken worker has not started waits
// startBy for it and parks; after such a miss it looks once and parks at
// once, until PollFor has passed. The worker here is parked, and its state
// is set by hand to the one Fork leaves on a worker it took off its
// processor.
func TestJoinLooksForStart(t *testing.T) {
	for deadline := time.Now().Add(5 * time.Second); busy.Load() != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond) // an earlier test's workers may still be counted
	}
	p := New(2)
	defer p.Shutdown()
	p.workers[1].state.Store(taken)
	defer p.workers[1].state.Store(idle)
	procs := int32(runtime.GOMAXPROCS(0))
	look := func() time.Duration {
		start := time.Now()
		if p.joined(procs, 2) {
			t.Fatal("joined with a worker that never started")
		}
		return time.Since(start)
	}
	if took := look(); took < startBy {
		t.Errorf("the first look took %v, want a wait of %v", took, startBy)
	}
	// The next ones do not wait; a host that stalls the test may still
	// make one slow, so the quickest of five counts.
	quickest := time.Hour
	for r := 0; r < 5; r++ {
		quickest = min(quickest, look())
	}
	if quickest >= startBy {
		t.Errorf("the looks after a miss took at least %v, want no wait", quickest)
	}
}

// TestLateParkLeavesNoSignal: a joiner that announces its park after the
// last worker has finished returns at once, and no signal is left over for
// a later join to return on before its worker is done. At one processor the
// workers never poll and every join is the parked kind; worker 0 finishes
// last in two regions of three and first in the third.
func TestLateParkLeavesNoSignal(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := New(2)
	defer p.Shutdown()
	var finished atomic.Int32
	for r := 0; r < 30; r++ {
		lastFirst := r%3 != 2
		p.Fork(func(w int) {
			switch {
			case w == 1 && !lastFirst:
				time.Sleep(time.Millisecond)
				fallthrough
			case w == 1:
				finished.Add(1)
			case lastFirst:
				for p.pending.Load() != 0 {
					runtime.Gosched()
				}
			}
		}, 2)
		if finished.Swap(0) != 1 {
			t.Fatalf("region %d: Fork returned before its worker finished", r)
		}
	}
}

// TestForkAllocatesNothing: a region is atomics and channel operations on
// prebuilt state. testing.AllocsPerRun runs at one processor, where the
// workers park after every region; the second count runs a 2-worker pool
// at two, where the worker polls and Fork takes it without a channel. A
// worker that does park there (a stall longer than PollFor) and is woken
// on the other processor can make the runtime allocate a sudog for that
// processor's cache, so the second count is the least of ten windows.
func TestForkAllocatesNothing(t *testing.T) {
	p := New(3)
	defer p.Shutdown()
	var sum atomic.Int64
	fn := func(w int) { sum.Add(int64(w)) }
	if a := testing.AllocsPerRun(50, func() { p.Fork(fn, 3) }); a != 0 {
		t.Errorf("Fork allocates %v objects per region at GOMAXPROCS 1, want 0", a)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	two := New(2)
	defer two.Shutdown()
	least := ^uint64(0)
	for try := 0; try < 10 && least > 0; try++ {
		for i := 0; i < 100; i++ {
			two.Fork(fn, 2)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 1000; i++ {
			two.Fork(fn, 2)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least != 0 {
		t.Errorf("1000 regions at GOMAXPROCS 2 allocate %d objects, want 0", least)
	}
}

// TestShutdownStopsWorkers: after Shutdown the workers exit, whether they
// were parked or polling for the next fork, and a second Shutdown is
// harmless.
func TestShutdownStopsWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	before := runtime.NumGoroutine()

	wide := New(5) // five workers on two processors: most park
	wide.Fork(func(int) {}, 5)
	wide.Shutdown()
	wide.Shutdown()

	narrow := New(2)
	for r := 0; r < 50 && narrow.workers[1].state.Load() != polling; r++ {
		narrow.Fork(func(int) {}, 2)
	}
	narrow.Shutdown()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Shutdown, %d before New", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
