package simnet

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eul3d/internal/forkjoin"
)

func TestBarrierReleasesAllParties(t *testing.T) {
	const n = 8
	b := NewBarrier(n)
	var arrived atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arrived.Add(1)
			b.Await()
			// Every party must observe a full complement at release.
			if got := arrived.Load(); got != n {
				t.Errorf("released with %d/%d arrivals", got, n)
			}
		}()
	}
	wg.Wait()
}

func TestBarrierReuseAcrossCycles(t *testing.T) {
	// The solver reuses one barrier for thousands of bulk-synchronous
	// phases; each generation must be independent of arrival order.
	const n = 5
	const cycles = 200
	b := NewBarrier(n)
	var phase atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for c := 0; c < cycles; c++ {
				if p == 0 {
					phase.Add(1)
				}
				b.Await()
				// Between barriers every party sees the same phase count.
				if got := phase.Load(); got != int64(c+1) {
					t.Errorf("party %d cycle %d: phase %d", p, c, got)
					return
				}
				b.Await()
			}
		}(p)
	}
	wg.Wait()
}

func TestBarrierSingleParty(t *testing.T) {
	b := NewBarrier(1)
	for c := 0; c < 3; c++ {
		b.Await() // must not block
		if !b.AwaitCheck(func() bool { return true }) {
			t.Fatal("single-party verdict lost")
		}
	}
}

func TestBarrierCheckEvaluatedOncePerGeneration(t *testing.T) {
	const n = 4
	b := NewBarrier(n)
	var evals atomic.Int64
	var wg sync.WaitGroup
	for cycle := 0; cycle < 10; cycle++ {
		for p := 0; p < n; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b.AwaitCheck(func() bool {
					evals.Add(1)
					return true
				})
			}()
		}
		wg.Wait()
	}
	if got := evals.Load(); got != 10 {
		t.Errorf("check ran %d times for 10 generations", got)
	}
}

func TestBarrierAwaitCheckConsistentVerdict(t *testing.T) {
	// All parties must receive the verdict evaluated by the last arriver,
	// even when the condition changes immediately afterwards.
	const n = 6
	b := NewBarrier(n)
	var mu sync.Mutex
	healthy := true
	results := make(chan bool, n)
	for p := 0; p < n; p++ {
		go func(p int) {
			v := b.AwaitCheck(func() bool {
				mu.Lock()
				defer mu.Unlock()
				return healthy
			})
			if p == 0 {
				// Flip the flag right after release: later readers of the
				// verdict must still see the snapshot.
				mu.Lock()
				healthy = false
				mu.Unlock()
			}
			results <- v
		}(p)
	}
	for p := 0; p < n; p++ {
		if v := <-results; !v {
			t.Fatal("verdict should be the healthy snapshot for every party")
		}
	}
	// Next generation: everyone must now agree on false.
	for p := 0; p < n; p++ {
		go func() {
			results <- b.AwaitCheck(func() bool {
				mu.Lock()
				defer mu.Unlock()
				return healthy
			})
		}()
	}
	for p := 0; p < n; p++ {
		if v := <-results; v {
			t.Fatal("second-generation verdict should be false for every party")
		}
	}
}

// TestBarrierPollingParties: an early party polls for the release under
// forkjoin.Poll's rule, and parks when a late one takes longer than
// forkjoin.PollFor. Either way every generation releases a full
// complement, with the last arriver's verdict.
func TestBarrierPollingParties(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n, generations = 2, 400
	b := NewBarrier(n)
	var phase atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for g := 0; g < generations; g++ {
				if p == g%n {
					phase.Add(1)
					if g%50 == 0 {
						time.Sleep(2 * forkjoin.PollFor) // the other party parks
					}
				}
				want := g%3 != 0
				if got := b.AwaitCheck(func() bool { return want }); got != want {
					t.Errorf("party %d generation %d: verdict %v, want %v", p, g, got, want)
					return
				}
				if got := phase.Load(); got != int64(g+1) {
					t.Errorf("party %d generation %d: released at phase %d", p, g, got)
					return
				}
				b.Await()
			}
		}(p)
	}
	wg.Wait()
}
