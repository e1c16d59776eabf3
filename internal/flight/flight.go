// Package flight shares one unit of work among every caller that asked
// for it. A flight is founded by the first Join under a key and joined by
// every later one; each caller holds a Party. The three invariants both
// service tiers rely on live here and nowhere else:
//
//   - Join attaches to a registered flight or founds a new one atomically,
//     so two identical submissions can never both found.
//   - Leave counts a party out exactly once; the last party out of a
//     flight that has not landed fires the founder's cancel function and
//     deregisters the flight, so nobody joins work that is being torn down.
//   - Land deregisters the flight before it closes Done, so a Join racing
//     with completion either shares the landed value or founds a fresh
//     flight — it never attaches to a finished one.
//
// What a waiter does with the landed value is the caller's business.
package flight

import "sync"

// Group is a keyed set of live flights landing values of type V. The
// zero value is ready to use.
type Group[V any] struct {
	mu      sync.Mutex
	flights map[string]*flight[V]
}

type flight[V any] struct {
	g      *Group[V]
	key    string
	leader string // id of the founding party
	cancel func()
	done   chan struct{}
	val    V // written by Land before done closes

	// Guarded by g.mu.
	live   []string // ids of the parties that have not left, in join order
	landed bool
}

// Party is one caller's stake in a flight.
type Party[V any] struct {
	f    *flight[V]
	id   string
	left bool // guarded by f.g.mu
}

// Join attaches id to the live flight registered under key, or founds one
// whose last-party-out action is cancel. It reports whether it founded.
func (g *Group[V]) Join(key, id string, cancel func()) (p *Party[V], founded bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f := g.flights[key]
	if f == nil {
		if g.flights == nil {
			g.flights = make(map[string]*flight[V])
		}
		f = &flight[V]{g: g, key: key, cancel: cancel, done: make(chan struct{}), leader: id}
		g.flights[key] = f
		founded = true
	}
	f.live = append(f.live, id)
	return &Party[V]{f: f, id: id}, founded
}

// retire deregisters f. Caller holds g.mu.
func (g *Group[V]) retire(f *flight[V]) {
	if g.flights[f.key] == f {
		delete(g.flights, f.key)
	}
}

// Leave counts the party out. Only the first call counts; the last party
// to leave an unlanded flight cancels it.
func (p *Party[V]) Leave() {
	f := p.f
	f.g.mu.Lock()
	if p.left {
		f.g.mu.Unlock()
		return
	}
	p.left = true
	for i, id := range f.live {
		if id == p.id {
			f.live = append(f.live[:i], f.live[i+1:]...)
			break
		}
	}
	last := len(f.live) == 0 && !f.landed
	if last {
		f.g.retire(f)
	}
	f.g.mu.Unlock()
	if last {
		f.cancel()
	}
}

// Land delivers v to every party and ends the flight. The founder calls
// it once, when the work reaches its terminal state — cancelled included.
func (p *Party[V]) Land(v V) {
	f := p.f
	f.g.mu.Lock()
	f.landed = true
	f.g.retire(f)
	f.val = v
	f.g.mu.Unlock()
	close(f.done)
}

// Done is closed when the flight has landed.
func (p *Party[V]) Done() <-chan struct{} { return p.f.done }

// Value returns the landed value; it is valid once Done is closed.
func (p *Party[V]) Value() V { return p.f.val }

// Leader returns the id of the party that founded the flight.
func (p *Party[V]) Leader() string { return p.f.leader }

// Live returns the ids of the parties that have not left, in join order.
func (p *Party[V]) Live() []string {
	p.f.g.mu.Lock()
	defer p.f.g.mu.Unlock()
	return append([]string(nil), p.f.live...)
}
