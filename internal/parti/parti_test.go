package parti

import (
	"math"
	"math/rand"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/simnet"
)

// chainDist builds a distribution of n globals over nproc in blocks.
func chainDist(t *testing.T, n, nproc int) *Dist {
	t.Helper()
	part := make([]int32, n)
	for i := range part {
		part[i] = int32(i * nproc / n)
	}
	d, err := NewDist(part, nproc)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDistRoundTrip(t *testing.T) {
	d := chainDist(t, 20, 4)
	for g := int32(0); g < 20; g++ {
		p := d.Owner[g]
		if d.L2G[p][d.Local[g]] != g {
			t.Fatalf("global %d: owner %d local %d does not round trip", g, p, d.Local[g])
		}
	}
	total := 0
	for p := 0; p < 4; p++ {
		total += d.Count(p)
	}
	if total != 20 {
		t.Errorf("counts sum to %d", total)
	}
}

func TestNewDistRejectsBadProc(t *testing.T) {
	if _, err := NewDist([]int32{0, 5}, 2); err == nil {
		t.Error("accepted out-of-range processor")
	}
}

func TestLocalizeOwnedAndGhost(t *testing.T) {
	d := chainDist(t, 10, 2)
	gs := NewGhostSpace(d)
	// Owned: identity-ish.
	if got := gs.Localize(0, 2); got != d.Local[2] {
		t.Errorf("owned localize = %d", got)
	}
	// Ghost: past owned range, stable on repeat (hash dedup).
	a := gs.Localize(0, 7)
	b := gs.Localize(0, 7)
	if a != b {
		t.Errorf("ghost localize not stable: %d vs %d", a, b)
	}
	if int(a) < d.Count(0) {
		t.Errorf("ghost slot %d inside owned range", a)
	}
	if gs.NumGhosts(0) != 1 {
		t.Errorf("ghosts = %d, want 1", gs.NumGhosts(0))
	}
}

func TestScheduleGatherRoundTrip(t *testing.T) {
	n, nproc := 40, 4
	d := chainDist(t, n, nproc)
	gs := NewGhostSpace(d)
	rng := rand.New(rand.NewSource(3))

	// Random cross references.
	refs := make([][]int32, nproc)
	for p := 0; p < nproc; p++ {
		for k := 0; k < 25; k++ {
			refs[p] = append(refs[p], int32(rng.Intn(n)))
		}
	}
	sch := BuildSchedule(gs, refs)
	f := simnet.New(nproc)

	// Owned data: value = global id (in every component).
	data := make([][]euler.State, nproc)
	for p := 0; p < nproc; p++ {
		data[p] = make([]euler.State, gs.TotalSize(p))
		for li, g := range d.L2G[p] {
			for k := 0; k < euler.NVar; k++ {
				data[p][li][k] = float64(g) + float64(k)/10
			}
		}
	}
	if err := sch.GatherStates(f, data); err != nil {
		t.Fatal(err)
	}
	// Every referenced global must now be readable at its local address.
	for p := 0; p < nproc; p++ {
		for _, g := range refs[p] {
			li := gs.Localize(p, g)
			for k := 0; k < euler.NVar; k++ {
				want := float64(g) + float64(k)/10
				if data[p][li][k] != want {
					t.Fatalf("proc %d global %d: got %v, want %v", p, g, data[p][li][k], want)
				}
			}
		}
	}
	if f.Pending(0)+f.Pending(1)+f.Pending(2)+f.Pending(3) != 0 {
		t.Error("messages left undelivered")
	}
}

func TestScatterAddInvertsGather(t *testing.T) {
	n, nproc := 30, 3
	d := chainDist(t, n, nproc)
	gs := NewGhostSpace(d)
	refs := make([][]int32, nproc)
	for p := 0; p < nproc; p++ {
		for g := 0; g < n; g += p + 2 {
			refs[p] = append(refs[p], int32(g))
		}
	}
	sch := BuildSchedule(gs, refs)
	f := simnet.New(nproc)

	data := make([][]euler.State, nproc)
	var wantTotal float64
	for p := 0; p < nproc; p++ {
		data[p] = make([]euler.State, gs.TotalSize(p))
		for li := range data[p] {
			data[p][li][0] = float64(p*100 + li)
			wantTotal += data[p][li][0]
		}
	}
	if err := sch.ScatterAddStates(f, data); err != nil {
		t.Fatal(err)
	}
	// Conservation: total over all arrays unchanged; ghosts zeroed.
	var got float64
	for p := 0; p < nproc; p++ {
		for li := range data[p] {
			got += data[p][li][0]
			if li >= d.Count(p) && data[p][li][0] != 0 {
				t.Fatalf("ghost slot %d on %d not zeroed", li, p)
			}
		}
	}
	if math.Abs(got-wantTotal) > 1e-9 {
		t.Errorf("scatter-add not conservative: %v vs %v", got, wantTotal)
	}
}

func TestFloatsGatherScatter(t *testing.T) {
	n, nproc := 24, 3
	d := chainDist(t, n, nproc)
	gs := NewGhostSpace(d)
	refs := make([][]int32, nproc)
	for p := 0; p < nproc; p++ {
		refs[p] = append(refs[p], int32((p*11+3)%n), int32((p*7+1)%n))
	}
	sch := BuildSchedule(gs, refs)
	f := simnet.New(nproc)
	data := make([][]float64, nproc)
	for p := 0; p < nproc; p++ {
		data[p] = make([]float64, gs.TotalSize(p))
		for li, g := range d.L2G[p] {
			data[p][li] = float64(g) * 1.5
		}
	}
	if err := sch.Exchange(f, Gather, Floats(data)); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < nproc; p++ {
		for _, g := range refs[p] {
			li := gs.Localize(p, g)
			if data[p][li] != float64(g)*1.5 {
				t.Fatalf("proc %d global %d: %v", p, g, data[p][li])
			}
		}
	}
	// Scatter-add of ones from ghosts: each owner gains the ghost count.
	for p := 0; p < nproc; p++ {
		for li := d.Count(p); li < len(data[p]); li++ {
			data[p][li] = 1
		}
		for li := 0; li < d.Count(p); li++ {
			data[p][li] = 0
		}
	}
	if err := sch.Exchange(f, ScatterAdd, Floats(data)); err != nil {
		t.Fatal(err)
	}
	var total float64
	for p := 0; p < nproc; p++ {
		for li := 0; li < d.Count(p); li++ {
			total += data[p][li]
		}
	}
	if int(total) != sch.Items() {
		t.Errorf("scatter-add total %v != schedule items %d", total, sch.Items())
	}
}

func TestIncrementalScheduleDedups(t *testing.T) {
	n, nproc := 30, 3
	d := chainDist(t, n, nproc)
	gs := NewGhostSpace(d)

	refs := make([][]int32, nproc)
	refs[0] = []int32{15, 16, 25}
	refs[1] = []int32{0, 29}
	refs[2] = []int32{5}
	first := BuildSchedule(gs, refs)
	if first.Items() != 6 {
		t.Fatalf("first schedule items = %d", first.Items())
	}

	// Second loop references a superset: the incremental schedule must
	// fetch only the new items.
	refs2 := make([][]int32, nproc)
	refs2[0] = []int32{15, 16, 25, 26} // one new
	refs2[1] = []int32{0, 29}          // none new
	refs2[2] = []int32{5, 6}           // one new
	inc, reused := BuildIncremental(gs, refs2)
	if inc.Items() != 2 {
		t.Errorf("incremental items = %d, want 2", inc.Items())
	}
	if reused != 6 {
		t.Errorf("reused = %d, want 6", reused)
	}
}

func TestScheduleAggregatesMessages(t *testing.T) {
	// Many references to the same owner must travel in one message (the
	// paper: "packing various small messages with the same destinations
	// into one large message").
	n, nproc := 40, 2
	d := chainDist(t, n, nproc)
	gs := NewGhostSpace(d)
	refs := make([][]int32, nproc)
	for g := 20; g < 40; g++ {
		refs[0] = append(refs[0], int32(g)) // proc 0 references all of proc 1
	}
	sch := BuildSchedule(gs, refs)
	if sch.Messages() != 1 {
		t.Errorf("messages = %d, want 1", sch.Messages())
	}
	if sch.Items() != 20 {
		t.Errorf("items = %d, want 20", sch.Items())
	}
	f := simnet.New(nproc)
	data := make([][]euler.State, nproc)
	for p := 0; p < nproc; p++ {
		data[p] = make([]euler.State, gs.TotalSize(p))
	}
	if err := sch.GatherStates(f, data); err != nil {
		t.Fatal(err)
	}
	msgs, bytes := f.Stats(1)
	if msgs != 1 {
		t.Errorf("fabric msgs from owner = %d, want 1", msgs)
	}
	if bytes != int64(20*euler.NVar*8) {
		t.Errorf("bytes = %d", bytes)
	}
}

func TestPairVolumes(t *testing.T) {
	d := chainDist(t, 10, 2)
	gs := NewGhostSpace(d)
	refs := make([][]int32, 2)
	refs[0] = []int32{7, 8}
	refs[1] = []int32{1}
	sch := BuildSchedule(gs, refs)
	pv := sch.PairVolumes()
	if pv[[2]int{1, 0}] != 2 || pv[[2]int{0, 1}] != 1 {
		t.Errorf("pair volumes = %v", pv)
	}
}
