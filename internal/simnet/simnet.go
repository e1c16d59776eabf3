// Package simnet provides the in-process message-passing fabric that stands
// in for the Intel Touchstone Delta's NX interconnect. Each endpoint
// (simulated processor node) has a FIFO queue per peer; sends enqueue packed
// float payloads under a typed envelope (per-pair sequence number and
// payload checksum), receives dequeue them in pairwise FIFO order. The
// fabric counts messages and bytes per endpoint so the Delta machine model
// can convert real communication volume into simulated time, and so tests
// can assert the paper's message-aggregation claims.
//
// Unlike the paper's Delta runs, the fabric does not assume a perfect
// interconnect: a seeded FaultPlan (see fault.go) can be attached to inject
// deterministic message drops, duplications, reorderings, payload
// corruption, delayed delivery and whole-node crashes. The envelope lets
// receivers detect every such fault (sequence gaps, checksum mismatches),
// and the retained-copy replay buffer (Rerequest) gives the PARTI executors
// a bounded ARQ protocol to heal them. With no plan attached the fault
// machinery is a single nil check off the hot path.
package simnet

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Typed transport errors. Callers match with errors.Is; every error
// returned by Send/Recv/Rerequest wraps exactly one of these (or is a
// caller bug such as an out-of-range endpoint).
var (
	// ErrNoPending: no deliverable message with the expected sequence
	// number (never sent, dropped in flight, or still delayed).
	ErrNoPending = errors.New("no pending message")
	// ErrCorrupt: the message with the expected sequence number failed its
	// checksum. The damaged copy is discarded; Rerequest can replay the
	// sender's pristine retained copy.
	ErrCorrupt = errors.New("corrupt message")
	// ErrNodeDown: an endpoint of the operation has crashed. Not healable
	// at the transport layer — the recovery orchestrator must Repair the
	// fabric and restore solver state from a checkpoint.
	ErrNodeDown = errors.New("node down")
)

// message is the typed envelope replacing the old float64(src) header:
// a per-(src,dst)-pair sequence number plus a checksum of the payload bits.
// src/dst are implicit in the per-pair queue indexing.
type message struct {
	seq     uint64
	sum     uint64
	payload []float64
	delay   int // fault injection: invisible for this many Recv scans
}

// checksumFloats hashes the payload's IEEE-754 bit patterns — cheap enough
// to run on every send and receive, strong enough to catch any single bit
// flip. It is four FNV-1a lanes over the words i ≡ 0..3 (mod 4), folded by
// one more FNV step per lane: four independent multiply chains where a
// single lane would be bound by the multiply latency. Every step (h^b)*prime
// is a bijection of h for fixed b and of b for fixed h, and so is the fold
// in each lane, which is why one flipped bit anywhere always changes the
// sum.
func checksumFloats(p []float64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := [4]uint64{offset, offset ^ 1, offset ^ 2, offset ^ 3}
	for len(p) >= 4 {
		h[0] = (h[0] ^ math.Float64bits(p[0])) * prime
		h[1] = (h[1] ^ math.Float64bits(p[1])) * prime
		h[2] = (h[2] ^ math.Float64bits(p[2])) * prime
		h[3] = (h[3] ^ math.Float64bits(p[3])) * prime
		p = p[4:]
	}
	for i, v := range p {
		h[i] = (h[i] ^ math.Float64bits(v)) * prime
	}
	sum := uint64(offset)
	for _, lane := range h {
		sum = (sum ^ lane) * prime
	}
	return sum
}

// pair is the state of one directed (src -> dst) link, guarded by mu[dst].
//
// The fabric owns every payload. A buffer is handed to the sender by Begin,
// becomes the in-flight message (and, shared, its retained replay copy) at
// Commit, is handed to the receiver by Recv — who may read it until the
// next successful Recv on the pair — and then returns to free.
type pair struct {
	queue    []message // pairwise FIFO
	nextSend uint64    // next seq to assign
	nextRecv uint64    // next seq expected
	retained message   // last pristine send (ARQ replay buffer)
	hasRet   bool

	free   [][]float64 // recycled payload buffers, each of cap >= maxLen when handed out
	held   []float64   // the buffer the last successful Recv handed out
	maxLen int         // longest payload the pair has carried

	counters
}

// counters is one link's traffic since the last ResetStats.
type counters struct {
	msgsSent, bytesSent int64 // by src, replays included
	msgsRecv, bytesRecv int64 // by dst
	resent              int64 // retained-copy replays
}

// Fabric is a fully-connected message network between N endpoints.
type Fabric struct {
	n     int
	mu    []sync.Mutex // one per destination endpoint
	pairs [][]pair     // pairs[dst][src]

	plan *FaultPlan

	anyDown atomic.Bool // fast-path gate for the down checks
	downMu  sync.RWMutex
	down    []bool
}

// New creates a fabric with n endpoints.
func New(n int) *Fabric {
	f := &Fabric{n: n, mu: make([]sync.Mutex, n), pairs: make([][]pair, n), down: make([]bool, n)}
	for dst := range f.pairs {
		f.pairs[dst] = make([]pair, n)
	}
	return f
}

// N returns the number of endpoints.
func (f *Fabric) N() int { return f.n }

// SetFaultPlan attaches a fault-injection plan (nil detaches). Must not be
// called while exchanges are in flight.
func (f *Fabric) SetFaultPlan(p *FaultPlan) { f.plan = p }

// FaultPlan returns the attached plan, nil when none is.
func (f *Fabric) FaultPlan() *FaultPlan { return f.plan }

func (f *Fabric) nodeDown(p int) bool {
	if !f.anyDown.Load() {
		return false
	}
	f.downMu.RLock()
	d := f.down[p]
	f.downMu.RUnlock()
	return d
}

// BeginCycle informs the fabric that solver cycle c is starting, firing any
// scheduled whole-node crash events up to and including c. Each crash event
// fires once: after a Repair the replacement node stays up.
func (f *Fabric) BeginCycle(c int) {
	if f.plan == nil {
		return
	}
	for _, node := range f.plan.crashesThrough(c) {
		if node >= 0 && node < f.n {
			f.downMu.Lock()
			f.down[node] = true
			f.downMu.Unlock()
			f.anyDown.Store(true)
		}
	}
}

// Repair revives all crashed nodes and resets the transport layer: queues,
// sequence numbers, replay buffers and every recycled or handed-out payload
// buffer are forgotten on every pair, so a resumed run never packs into a
// slice a pre-crash receiver still holds. The recovery orchestrator calls
// this before restoring partition state from a checkpoint, so the resumed
// run starts from a clean bulk-synchronous slate. Statistics are preserved.
func (f *Fabric) Repair() {
	f.downMu.Lock()
	for p := range f.down {
		f.down[p] = false
	}
	f.downMu.Unlock()
	f.anyDown.Store(false)
	for dst := range f.pairs {
		f.mu[dst].Lock()
		for src := range f.pairs[dst] {
			pr := &f.pairs[dst][src]
			*pr = pair{counters: pr.counters}
		}
		f.mu[dst].Unlock()
	}
}

// NodeDown reports whether endpoint p has crashed.
func (f *Fabric) NodeDown(p int) bool { return f.nodeDown(p) }

// Begin opens a send of n floats from src to dst: it returns the pair's
// buffer for the sender to pack into and hand back with Commit. The slice
// is the sender's alone until then; its contents are unspecified.
func (f *Fabric) Begin(src, dst, n int) ([]float64, error) {
	if src < 0 || src >= f.n || dst < 0 || dst >= f.n {
		return nil, fmt.Errorf("simnet: send %d->%d out of range [0,%d)", src, dst, f.n)
	}
	if f.nodeDown(src) {
		return nil, fmt.Errorf("simnet: send %d->%d: source: %w", src, dst, ErrNodeDown)
	}
	if f.nodeDown(dst) {
		return nil, fmt.Errorf("simnet: send %d->%d: destination: %w", src, dst, ErrNodeDown)
	}
	f.mu[dst].Lock()
	pr := &f.pairs[dst][src]
	if n > pr.maxLen {
		pr.maxLen = n
	}
	var buf []float64
	if k := len(pr.free) - 1; k >= 0 {
		buf, pr.free = pr.free[k], pr.free[:k]
	}
	// Sized to the pair's longest message, not to this one, so the two or
	// three buffers a bulk-synchronous pair rotates through stop growing
	// as soon as its longest exchange has been seen once.
	if cap(buf) < pr.maxLen {
		buf = make([]float64, pr.maxLen)
	}
	f.mu[dst].Unlock()
	return buf[:n], nil
}

// Commit sends the payload a Begin(src, dst, ...) returned, now packed.
// Messages between the same pair are delivered in order (by sequence
// number). The fabric keeps the slice: the sender must not touch it again.
func (f *Fabric) Commit(src, dst int, payload []float64) {
	m := message{sum: checksumFloats(payload), payload: payload}
	f.mu[dst].Lock()
	pr := &f.pairs[dst][src]
	m.seq = pr.nextSend
	pr.nextSend++
	// Retain the pristine message for replay; it shares the in-flight
	// buffer, which cannot be recycled before the message after it has been
	// received. The bulk-synchronous exchange discipline keeps at most one
	// message in flight per pair, so one slot suffices.
	pr.retained, pr.hasRet = m, true
	if f.plan != nil {
		f.enqueueFaulty(pr, src, dst, m)
	} else {
		pr.queue = append(pr.queue, m)
	}
	pr.msgsSent++
	pr.bytesSent += int64(8 * len(payload))
	f.mu[dst].Unlock()
}

// Send is the copy-in form of Begin + Commit: payload is copied into the
// pair's buffer, so callers may reuse their own immediately.
func (f *Fabric) Send(src, dst int, payload []float64) error {
	buf, err := f.Begin(src, dst, len(payload))
	if err != nil {
		return err
	}
	copy(buf, payload)
	f.Commit(src, dst, buf)
	return nil
}

// enqueueFaulty applies the fault plan to one send. Called with mu[dst]
// held.
func (f *Fabric) enqueueFaulty(pr *pair, src, dst int, m message) {
	ev := f.plan.matchSend(src, dst, m.seq)
	if ev == nil {
		pr.queue = append(pr.queue, m)
		return
	}
	switch ev.Kind {
	case FaultDrop:
		return // lost in flight; the retained copy can still be replayed
	case FaultDuplicate:
		pr.queue = append(pr.queue, m, m)
	case FaultCorrupt:
		// Flip one payload bit in a private copy, queued in place of the
		// message; the retained copy stays pristine so a re-request heals
		// the exchange.
		cp := make([]float64, len(m.payload))
		copy(cp, m.payload)
		if len(cp) > 0 {
			i := int(m.seq) % len(cp)
			cp[i] = math.Float64frombits(math.Float64bits(cp[i]) ^ 1<<(m.seq%52))
		}
		m.payload = cp
		pr.queue = append(pr.queue, m)
	case FaultDelay:
		m.delay = ev.Delay
		if m.delay <= 0 {
			m.delay = 2
		}
		pr.queue = append(pr.queue, m)
	case FaultReorder:
		pr.queue = append([]message{m}, pr.queue...) // jump the queue
	default:
		pr.queue = append(pr.queue, m)
	}
}

// Recv dequeues the message with the next expected sequence number sent to
// dst by src. The returned slice is the fabric's: the receiver may read it
// until its next successful Recv on the same pair, when the buffer is
// recycled for a later send. Stale duplicates (sequence already delivered)
// encountered during the scan are discarded unread. The error, when
// non-nil, wraps one of the typed transport errors: ErrNoPending when no
// deliverable message with the expected sequence exists, ErrCorrupt when it
// exists but fails its checksum (the damaged copy is removed so a replay
// can take its place), ErrNodeDown when either endpoint has crashed.
func (f *Fabric) Recv(dst, src int) ([]float64, error) {
	if src < 0 || src >= f.n || dst < 0 || dst >= f.n {
		return nil, fmt.Errorf("simnet: recv %d<-%d out of range [0,%d)", dst, src, f.n)
	}
	if f.nodeDown(src) {
		return nil, fmt.Errorf("simnet: recv %d<-%d: sender: %w", dst, src, ErrNodeDown)
	}
	if f.nodeDown(dst) {
		return nil, fmt.Errorf("simnet: recv %d<-%d: receiver: %w", dst, src, ErrNodeDown)
	}
	f.mu[dst].Lock()
	defer f.mu[dst].Unlock()
	pr := &f.pairs[dst][src]
	want := pr.nextRecv
	var out []float64
	var rerr error
	found := false
	kept := pr.queue[:0]
	for _, m := range pr.queue {
		if m.seq < want {
			continue // stale duplicate: already delivered, discard
		}
		if m.seq == want && !found && rerr == nil {
			if m.delay > 0 {
				m.delay-- // still in flight: visible on a later attempt
				kept = append(kept, m)
				continue
			}
			if checksumFloats(m.payload) != m.sum {
				rerr = fmt.Errorf("simnet: recv %d<-%d seq %d: %w", dst, src, m.seq, ErrCorrupt)
				continue // drop the damaged copy; expected seq is unchanged
			}
			out, found = m.payload, true
			continue // consumed
		}
		kept = append(kept, m)
	}
	pr.queue = kept
	if found {
		pr.nextRecv = want + 1
		if pr.held != nil {
			pr.free = append(pr.free, pr.held)
		}
		pr.held = out
		pr.msgsRecv++
		pr.bytesRecv += int64(8 * len(out))
		return out, nil
	}
	if rerr != nil {
		return nil, rerr
	}
	return nil, fmt.Errorf("simnet: recv %d<-%d seq %d: %w", dst, src, want, ErrNoPending)
}

// Rerequest is the receiver-driven ARQ primitive: it replays the sender's
// retained pristine copy of the last message on the pair, healing a drop,
// a corruption or an excessive delay. It fails with ErrNoPending when there
// is nothing undelivered to replay and with ErrNodeDown when the sender has
// crashed (a crashed sender cannot retransmit).
func (f *Fabric) Rerequest(dst, src int) error {
	if src < 0 || src >= f.n || dst < 0 || dst >= f.n {
		return fmt.Errorf("simnet: rerequest %d<-%d out of range [0,%d)", dst, src, f.n)
	}
	if f.nodeDown(src) || f.nodeDown(dst) {
		return fmt.Errorf("simnet: rerequest %d<-%d: %w", dst, src, ErrNodeDown)
	}
	f.mu[dst].Lock()
	defer f.mu[dst].Unlock()
	pr := &f.pairs[dst][src]
	if !pr.hasRet {
		return fmt.Errorf("simnet: rerequest %d<-%d: nothing retained: %w", dst, src, ErrNoPending)
	}
	m := pr.retained
	if m.seq < pr.nextRecv {
		return fmt.Errorf("simnet: rerequest %d<-%d: seq %d already delivered: %w", dst, src, m.seq, ErrNoPending)
	}
	pr.queue = append(pr.queue, m)
	pr.msgsSent++
	pr.bytesSent += int64(8 * len(m.payload))
	pr.resent++
	return nil
}

// Pending returns the number of undelivered messages destined to dst.
func (f *Fabric) Pending(dst int) int {
	f.mu[dst].Lock()
	defer f.mu[dst].Unlock()
	n := 0
	for src := range f.pairs[dst] {
		n += len(f.pairs[dst][src].queue)
	}
	return n
}

// PendingFrom returns the number of undelivered messages to dst from src.
func (f *Fabric) PendingFrom(dst, src int) int {
	f.mu[dst].Lock()
	defer f.mu[dst].Unlock()
	return len(f.pairs[dst][src].queue)
}

// The counters live on the pairs and move under the mu[dst] a Send, Recv or
// Rerequest already holds; a reader sums the pairs it wants, taking each
// destination's lock in turn.

// tally calls visit on every pair whose source passes src and destination
// passes dst (-1 passes all), under the destination's lock.
func (f *Fabric) tally(src, dst int, visit func(pr *pair)) {
	for d := range f.pairs {
		if dst >= 0 && d != dst {
			continue
		}
		f.mu[d].Lock()
		for s := range f.pairs[d] {
			if src < 0 || s == src {
				visit(&f.pairs[d][s])
			}
		}
		f.mu[d].Unlock()
	}
}

// Resends returns the number of retained-copy replays served since the last
// ResetStats — nonzero only when faults were injected and healed.
func (f *Fabric) Resends() (n int64) {
	f.tally(-1, -1, func(pr *pair) { n += pr.resent })
	return n
}

// Stats returns total messages and bytes sent by endpoint p since the last
// ResetStats.
func (f *Fabric) Stats(p int) (msgs, bytes int64) {
	f.tally(p, -1, func(pr *pair) { msgs, bytes = msgs+pr.msgsSent, bytes+pr.bytesSent })
	return
}

// RecvStats returns total messages and bytes received by endpoint p since
// the last ResetStats.
func (f *Fabric) RecvStats(p int) (msgs, bytes int64) {
	f.tally(-1, p, func(pr *pair) { msgs, bytes = msgs+pr.msgsRecv, bytes+pr.bytesRecv })
	return
}

// TotalStats returns fabric-wide message and byte counts.
func (f *Fabric) TotalStats() (msgs, bytes int64) {
	f.tally(-1, -1, func(pr *pair) { msgs, bytes = msgs+pr.msgsSent, bytes+pr.bytesSent })
	return
}

// ResetStats zeroes all counters.
func (f *Fabric) ResetStats() {
	f.tally(-1, -1, func(pr *pair) { pr.counters = counters{} })
}
