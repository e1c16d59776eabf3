package parti

import (
	"math/rand"
	"testing"
	"testing/quick"

	"eul3d/internal/euler"
	"eul3d/internal/simnet"
)

// TestQuickGatherAlwaysDeliversOwnerValues drives random distributions and
// reference patterns through the inspector/executor and checks the
// fundamental contract: after a gather, every localized reference reads
// the owner's value.
func TestQuickGatherAlwaysDeliversOwnerValues(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		nproc := 1 + rng.Intn(6)
		part := make([]int32, n)
		for i := range part {
			part[i] = int32(rng.Intn(nproc))
		}
		d, err := NewDist(part, nproc)
		if err != nil {
			return false
		}
		gs := NewGhostSpace(d)
		refs := make([][]int32, nproc)
		for p := 0; p < nproc; p++ {
			for k := rng.Intn(3 * n); k > 0; k-- {
				refs[p] = append(refs[p], int32(rng.Intn(n)))
			}
		}
		sch := BuildSchedule(gs, refs)
		fab := simnet.New(nproc)
		data := make([][]euler.State, nproc)
		for p := 0; p < nproc; p++ {
			data[p] = make([]euler.State, gs.TotalSize(p))
			for li, g := range d.L2G[p] {
				data[p][li][0] = float64(g)
			}
		}
		if err := sch.GatherStates(fab, data); err != nil {
			return false
		}
		for p := 0; p < nproc; p++ {
			for _, g := range refs[p] {
				if data[p][gs.Localize(p, g)][0] != float64(g) {
					return false
				}
			}
			if fab.Pending(p) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickScatterAddConserves checks that scatter-add moves mass without
// creating or destroying it, for random distributions and patterns.
func TestQuickScatterAddConserves(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		nproc := 1 + rng.Intn(5)
		part := make([]int32, n)
		for i := range part {
			part[i] = int32(rng.Intn(nproc))
		}
		d, err := NewDist(part, nproc)
		if err != nil {
			return false
		}
		gs := NewGhostSpace(d)
		refs := make([][]int32, nproc)
		for p := 0; p < nproc; p++ {
			for k := rng.Intn(2 * n); k > 0; k-- {
				refs[p] = append(refs[p], int32(rng.Intn(n)))
			}
		}
		sch := BuildSchedule(gs, refs)
		fab := simnet.New(nproc)
		data := make([][]float64, nproc)
		want := 0.0
		for p := 0; p < nproc; p++ {
			data[p] = make([]float64, gs.TotalSize(p))
			for li := range data[p] {
				data[p][li] = rng.NormFloat64()
				want += data[p][li]
			}
		}
		if err := sch.ScatterAddFloats(fab, data); err != nil {
			return false
		}
		got := 0.0
		for p := 0; p < nproc; p++ {
			for _, v := range data[p] {
				got += v
			}
		}
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickIncrementalNeverRefetches: building a schedule twice from the
// same references must yield an empty incremental schedule.
func TestQuickIncrementalNeverRefetches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		nproc := 2 + rng.Intn(4)
		part := make([]int32, n)
		for i := range part {
			part[i] = int32(rng.Intn(nproc))
		}
		d, err := NewDist(part, nproc)
		if err != nil {
			return false
		}
		gs := NewGhostSpace(d)
		refs := make([][]int32, nproc)
		for p := 0; p < nproc; p++ {
			for k := rng.Intn(2 * n); k > 0; k-- {
				refs[p] = append(refs[p], int32(rng.Intn(n)))
			}
		}
		first := BuildSchedule(gs, refs)
		second, reused := BuildIncremental(gs, refs)
		return second.Items() == 0 && reused == first.Items()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickMergeIsTheMembersInSeries: for random distributions and two
// reference patterns, the second built incrementally on the first, an
// exchange through Merge(a, b) leaves every array kind holding what the
// exchange through a and then through b leaves — in both directions — in one
// message per pair where the members take up to two, and its Items,
// Messages and PairVolumes are the members' combined; a nil member is
// skipped. The values are small integers: a scatter-add through the merged
// schedule adds an owner's contributions peer by peer, not member by
// member, and only exact sums make that order invisible.
func TestQuickMergeIsTheMembersInSeries(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		nproc := 1 + rng.Intn(6)
		part := make([]int32, n)
		for i := range part {
			part[i] = int32(rng.Intn(nproc))
		}
		d, err := NewDist(part, nproc)
		if err != nil {
			return false
		}
		gs := NewGhostSpace(d)
		pattern := func() [][]int32 {
			refs := make([][]int32, nproc)
			for p := 0; p < nproc; p++ {
				for k := rng.Intn(2 * n); k > 0; k-- {
					refs[p] = append(refs[p], int32(rng.Intn(n)))
				}
			}
			return refs
		}
		a := BuildSchedule(gs, pattern())
		b, _ := BuildIncremental(gs, pattern())
		m := Merge(a, nil, b)

		// The bookkeeping.
		if m.Items() != a.Items()+b.Items() || Merge(nil, a).Items() != a.Items() || Merge(nil, nil) != nil {
			return false
		}
		va, vb, pairs := a.PairVolumes(), b.PairVolumes(), 0
		for pair, v := range m.PairVolumes() {
			if v != va[pair]+vb[pair] {
				return false
			}
			pairs++
		}
		for pair := range va {
			if _, ok := vb[pair]; ok {
				pairs++ // counted once in the merged schedule, twice in series
			}
		}
		if m.Messages() != len(m.PairVolumes()) || pairs != a.Messages()+b.Messages() {
			return false
		}

		// The data: two copies of every array kind, one per route.
		type set struct {
			aos [][]euler.State
			flt [][]float64
		}
		mk := func() (x, y set) {
			for _, s := range []*set{&x, &y} {
				s.aos, s.flt = make([][]euler.State, nproc), make([][]float64, nproc)
			}
			for p := 0; p < nproc; p++ {
				size := gs.TotalSize(p)
				for _, s := range []*set{&x, &y} {
					s.aos[p], s.flt[p] = make([]euler.State, size), make([]float64, size)
				}
				for i := 0; i < size; i++ {
					var st euler.State
					for k := range st {
						st[k] = float64(rng.Intn(200) - 100)
					}
					fl := float64(rng.Intn(200) - 100)
					for _, s := range []*set{&x, &y} {
						s.aos[p][i], s.flt[p][i] = st, fl
					}
				}
			}
			return x, y
		}
		arrays := func(s set) Arrays { return States(s.aos).And(Floats(s.flt)) }
		for _, dir := range []Dir{Gather, ScatterAdd} {
			series, merged := mk()
			fab := simnet.New(nproc)
			if a.Exchange(fab, dir, arrays(series)) != nil || b.Exchange(fab, dir, arrays(series)) != nil {
				return false
			}
			before, _ := fab.TotalStats()
			if m.Exchange(fab, dir, arrays(merged)) != nil {
				return false
			}
			if after, _ := fab.TotalStats(); after-before != int64(m.Messages()) {
				return false
			}
			for p := 0; p < nproc; p++ {
				for i := range series.aos[p] {
					if series.aos[p][i] != merged.aos[p][i] || series.flt[p][i] != merged.flt[p][i] {
						return false
					}
				}
				if fab.Pending(p) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
