package simnet

import (
	"math"
	"math/rand"
	"testing"
)

// TestChecksumCatchesEverySingleBitFlip flips every bit of every word of a
// short payload and of a long one whose length is not a multiple of the
// lane count, so every lane, the tail and the fold are all exercised.
func TestChecksumCatchesEverySingleBitFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 131} {
		p := make([]float64, n)
		for i := range p {
			p[i] = rng.NormFloat64()
		}
		want := checksumFloats(p)
		for i := range p {
			orig := p[i]
			for bit := 0; bit < 64; bit++ {
				p[i] = math.Float64frombits(math.Float64bits(orig) ^ 1<<bit)
				if checksumFloats(p) == want {
					t.Fatalf("len %d: flipping bit %d of word %d leaves the checksum unchanged", n, bit, i)
				}
			}
			p[i] = orig
		}
		if checksumFloats(p) != want {
			t.Fatalf("len %d: checksum is not a function of the payload", n)
		}
	}
	// Words in different lanes must not cancel: swapping two of them, or
	// moving a word across the tail boundary, changes the sum.
	if checksumFloats([]float64{1, 2, 3, 4, 5}) == checksumFloats([]float64{2, 1, 3, 4, 5}) {
		t.Error("checksum is blind to a swap across lanes")
	}
	if checksumFloats([]float64{0, 0, 0, 0}) == checksumFloats([]float64{0, 0, 0}) {
		t.Error("checksum is blind to the payload length")
	}
}

// TestRecvBufferStableUntilNextRecv pins the lifetime rule of the slice
// Recv hands out: it is bit-stable while later sends on the same pair and
// traffic on other pairs proceed — whatever faults those sends meet — and
// is recycled only by the next successful Recv on its pair.
func TestRecvBufferStableUntilNextRecv(t *testing.T) {
	payload := func(tag, n int) []float64 {
		p := make([]float64, n)
		for i := range p {
			p[i] = float64(1000*tag + i)
		}
		return p
	}
	same := func(got []float64, tag, n int) bool {
		want := payload(tag, n)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	f := New(3)
	// Seq 2 on 0->1 is duplicated, seq 3 corrupted, seq 4 dropped: the
	// stale duplicate, the private corrupt copy and the replays must not
	// disturb a slice the receiver still holds.
	f.SetFaultPlan(NewFaultPlan(
		FaultEvent{Kind: FaultDuplicate, Src: 0, Dst: 1, Seq: 2},
		FaultEvent{Kind: FaultCorrupt, Src: 0, Dst: 1, Seq: 3},
		FaultEvent{Kind: FaultDrop, Src: 0, Dst: 1, Seq: 4},
	))
	recv := func(dst, src int) []float64 {
		t.Helper()
		m, err := f.Recv(dst, src)
		for tries := 0; err != nil && tries < 3; tries++ {
			if rerr := f.Rerequest(dst, src); rerr != nil {
				t.Fatalf("rerequest %d<-%d after %v: %v", dst, src, err, rerr)
			}
			m, err = f.Recv(dst, src)
		}
		if err != nil {
			t.Fatalf("recv %d<-%d: %v", dst, src, err)
		}
		return m
	}
	const n = 9
	var held []float64
	for seq := 0; seq < 12; seq++ {
		if err := f.Send(0, 1, payload(seq, n+seq%3)); err != nil {
			t.Fatal(err)
		}
		// The previous message's slice outlives this send, traffic on the
		// reverse pair and on a third endpoint, and failed receives.
		for _, pr := range [][2]int{{1, 0}, {2, 1}, {0, 2}} {
			if err := f.Send(pr[0], pr[1], payload(99, n)); err != nil {
				t.Fatal(err)
			}
			if got := recv(pr[1], pr[0]); !same(got, 99, n) {
				t.Fatalf("seq %d: side traffic %v garbled: %v", seq, pr, got)
			}
		}
		if held != nil && !same(held, seq-1, n+(seq-1)%3) {
			t.Fatalf("slice of seq %d changed before the next Recv on its pair: %v", seq-1, held)
		}
		held = recv(1, 0)
		if !same(held, seq, n+seq%3) {
			t.Fatalf("seq %d delivered %v", seq, held)
		}
	}
	if f.Resends() != 2 {
		t.Errorf("resends = %d, want 2 (one corrupt, one dropped message)", f.Resends())
	}

	// Several messages in flight on one pair: each is delivered intact and
	// the free list simply grows.
	g := New(2)
	for seq := 0; seq < 5; seq++ {
		if err := g.Send(0, 1, payload(seq, n)); err != nil {
			t.Fatal(err)
		}
	}
	var prev []float64
	for seq := 0; seq < 5; seq++ {
		m, err := g.Recv(1, 0)
		if err != nil || !same(m, seq, n) {
			t.Fatalf("in-flight seq %d: %v %v", seq, m, err)
		}
		if prev != nil && &prev[0] == &m[0] {
			t.Fatalf("seq %d delivered in the buffer seq %d still occupies", seq, seq-1)
		}
		prev = m
	}
}

// TestSteadyStateSendRecvAllocatesNothing: once a pair has seen its
// longest message its buffers rotate, whatever the order of sizes.
func TestSteadyStateSendRecvAllocatesNothing(t *testing.T) {
	f := New(2)
	sizes := []int{40, 8, 40, 1, 16}
	round := func() {
		for _, n := range sizes {
			buf, err := f.Begin(0, 1, n)
			if err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				buf[i] = float64(i)
			}
			f.Commit(0, 1, buf)
			if m, err := f.Recv(1, 0); err != nil || len(m) != n {
				t.Fatalf("recv: %d floats, %v", len(m), err)
			}
		}
	}
	round()
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Errorf("%v allocations per round in steady state, want 0", allocs)
	}
}

// TestStatsPerEndpointExact checks every reader of the per-link counters
// against a hand count, replays included, and that Repair keeps the
// statistics while forgetting every buffer it ever lent.
func TestStatsPerEndpointExact(t *testing.T) {
	f := New(3)
	f.SetFaultPlan(NewFaultPlan(FaultEvent{Kind: FaultDrop, Src: 0, Dst: 2, Seq: 0}))
	send := func(src, dst, n int) {
		t.Helper()
		if err := f.Send(src, dst, make([]float64, n)); err != nil {
			t.Fatal(err)
		}
	}
	send(0, 1, 10)
	send(0, 2, 3) // dropped
	send(1, 2, 4)
	send(2, 0, 5)
	if _, err := f.Recv(2, 0); err == nil {
		t.Fatal("dropped message was delivered")
	}
	if err := f.Rerequest(2, 0); err != nil {
		t.Fatal(err)
	}
	var lent [][]float64
	for _, pr := range [][2]int{{1, 0}, {2, 0}, {2, 1}, {0, 2}} {
		m, err := f.Recv(pr[0], pr[1])
		if err != nil {
			t.Fatal(err)
		}
		lent = append(lent, m)
	}
	check := func(when string) {
		t.Helper()
		for p, want := range [][4]int64{
			{3, 8 * (10 + 3 + 3), 1, 8 * 5}, // 0: two sends and a replay; one receive
			{1, 8 * 4, 1, 8 * 10},           // 1
			{1, 8 * 5, 2, 8 * (3 + 4)},      // 2
		} {
			sm, sb := f.Stats(p)
			rm, rb := f.RecvStats(p)
			if got := [4]int64{sm, sb, rm, rb}; got != want {
				t.Errorf("%s: endpoint %d sent/received %v, want %v", when, p, got, want)
			}
		}
		if tm, tb := f.TotalStats(); tm != 5 || tb != 8*(10+3+3+4+5) {
			t.Errorf("%s: totals %d msgs %d bytes", when, tm, tb)
		}
		if f.Resends() != 1 {
			t.Errorf("%s: resends = %d, want 1", when, f.Resends())
		}
	}
	check("before repair")
	f.Repair()
	check("after repair")

	// Nothing the fabric lent before the repair may come back out of it.
	for round := 0; round < 3; round++ {
		for _, pr := range [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 0}} {
			buf, err := f.Begin(pr[0], pr[1], 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, old := range lent {
				if &old[0] == &buf[0] {
					t.Fatalf("repaired fabric packs %d->%d into a slice a pre-repair receiver holds", pr[0], pr[1])
				}
			}
			f.Commit(pr[0], pr[1], buf)
			if _, err := f.Recv(pr[1], pr[0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.ResetStats()
	if m, b := f.TotalStats(); m != 0 || b != 0 || f.Resends() != 0 {
		t.Error("ResetStats left counters behind")
	}
}
