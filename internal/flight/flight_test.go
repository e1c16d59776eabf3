package flight

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// record is what the test knows about one flight, keyed by its founder's
// id. Every goroutine files one under its own id before it calls Join, so
// a party that attaches can always look its leader's up.
type record struct {
	value    int          // what the founder lands; written before Land
	cancels  atomic.Int32 // times the founder's cancel function ran
	landedAt atomic.Int64 // logical time Land returned (0: not yet)
	stayed   atomic.Int32 // parties that never left
}

// TestSeededInterleavings drives random Join/Leave/Land schedules from
// many goroutines against one key and checks the package's invariants:
// cancel fires at most once, and only when every party left before Land;
// no Join attaches to a flight after its Land returned; every party that
// stayed sees the landed value; a second Leave counts nobody out.
func TestSeededInterleavings(t *testing.T) {
	const (
		workers = 8
		rounds  = 6
	)
	for seed := int64(1); seed <= 200; seed++ {
		var (
			g       Group[int]
			clock   atomic.Int64
			records sync.Map // founder id -> *record
			wg      sync.WaitGroup
		)
		yield := func(r *rand.Rand) {
			for n := r.Intn(4); n > 0; n-- {
				runtime.Gosched()
			}
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed*1000 + int64(w)))
				sawLand := "" // leader of the flight this goroutine just watched land
				for round := 0; round < rounds; round++ {
					id := fmt.Sprintf("s%d/w%d/r%d", seed, w, round)
					mine := &record{value: int(seed)*100000 + w*100 + round}
					cancelled := make(chan struct{})
					records.Store(id, mine)
					if sawLand == "" {
						yield(r)
					}
					asked := clock.Add(1)
					p, founded := g.Join("key", id, func() {
						if mine.cancels.Add(1) == 1 {
							close(cancelled)
						}
					})
					if founded != (p.Leader() == id) {
						t.Errorf("seed %d: %s founded=%v but leader is %s", seed, id, founded, p.Leader())
					}
					v, _ := records.Load(p.Leader())
					rec := v.(*record)
					if at := rec.landedAt.Load(); !founded && at != 0 && asked > at || p.Leader() == sawLand {
						t.Errorf("seed %d: %s attached to %s after it landed", seed, id, p.Leader())
					}
					sawLand = ""
					leave := func() {
						p.Leave()
						if r.Intn(2) == 0 {
							p.Leave() // must count nobody out: a stayer would lose its flight
						}
					}
					yield(r)
					switch {
					case founded && r.Intn(2) == 0:
						// The founder's own client stays: whatever the waiters
						// do, the run must never be cancelled.
						rec.stayed.Add(1)
						p.Land(rec.value)
						rec.landedAt.Store(clock.Add(1))
					case founded:
						// The founder's client leaves; the run goes on for the
						// waiters and lands when it is cancelled or finishes.
						leave()
						select {
						case <-cancelled:
						default:
							yield(r)
						}
						p.Land(rec.value)
						rec.landedAt.Store(clock.Add(1))
					case r.Intn(2) == 0:
						leave()
					default:
						rec.stayed.Add(1)
						select {
						case <-p.Done():
							if got := p.Value(); got != rec.value {
								t.Errorf("seed %d: %s saw %d, leader %s landed %d", seed, id, got, p.Leader(), rec.value)
							}
							sawLand = p.Leader()
						case <-time.After(30 * time.Second):
							t.Errorf("seed %d: %s never saw %s land", seed, id, p.Leader())
						}
						p.Leave() // after Land: must not cancel
					}
				}
			}(w)
		}
		wg.Wait()
		records.Range(func(id, v any) bool {
			rec := v.(*record)
			if n := rec.cancels.Load(); n > 1 {
				t.Errorf("seed %d: flight %s cancelled %d times", seed, id, n)
			} else if n == 1 && rec.stayed.Load() > 0 {
				t.Errorf("seed %d: flight %s cancelled while %d parties stayed", seed, id, rec.stayed.Load())
			}
			return true
		})
		if len(g.flights) != 0 {
			t.Errorf("seed %d: %d flights still registered after every one landed", seed, len(g.flights))
		}
		if t.Failed() {
			return
		}
	}
}

// TestLastLeaveCancelsAndRetires pins the sequential contract: parties
// count out once each, the last one out fires cancel and frees the key,
// and Live lists who is left.
func TestLastLeaveCancelsAndRetires(t *testing.T) {
	var g Group[string]
	cancels := 0
	lead, founded := g.Join("k", "lead", func() { cancels++ })
	if !founded {
		t.Fatal("first Join did not found")
	}
	w, founded := g.Join("k", "w", nil)
	if founded || w.Leader() != "lead" {
		t.Fatalf("second Join founded=%v leader=%q, want attach to lead", founded, w.Leader())
	}
	lead.Leave()
	lead.Leave()
	if got := w.Live(); len(got) != 1 || got[0] != "w" || cancels != 0 {
		t.Fatalf("after the leader's double Leave: live %v, %d cancels; want [w], 0", got, cancels)
	}
	w.Leave()
	if cancels != 1 {
		t.Fatalf("last party out fired cancel %d times, want 1", cancels)
	}
	if _, founded := g.Join("k", "next", func() {}); !founded {
		t.Fatal("Join attached to a flight whose last party had left")
	}
	lead.Land("late")
	select {
	case <-w.Done():
	default:
		t.Fatal("Done not closed by Land")
	}
	if w.Value() != "late" {
		t.Fatalf("Value %q, want late", w.Value())
	}
	if _, founded := g.Join("k", "again", func() {}); founded {
		t.Fatal("the old flight's Land retired the live flight that reused its key")
	}
}
