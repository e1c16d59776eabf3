// Package parti reimplements the PARTI runtime primitives (Parallel
// Automated Runtime Toolkit at ICASE) that the paper used to port EUL3D to
// the Intel Touchstone Delta. The key pieces are:
//
//   - a translation table mapping global indices to (processor, local
//     offset) pairs (Dist);
//   - the inspector, which examines the off-processor references of a loop
//     and produces a communication Schedule (BuildSchedule), deduplicating
//     references through a hash table;
//   - incremental schedules (BuildIncremental), which fetch only the
//     off-processor data not already covered by pre-existing schedules —
//     the communication optimization of Section 4.3;
//   - schedule merging (Merge), which sends what several such schedules
//     move as one message per neighbour — the other half of Section 4.3;
//   - executors (exec.go: Exchange and its per-processor halves, in the
//     Gather and ScatterAdd directions) that move ghost data through the
//     simnet fabric, packing all values for the same destination — of every
//     array the exchange carries — into one message to amortize latency.
//
// Ghost copies live past the end of each processor's owned range: a
// distributed array on processor p has layout [owned values | ghosts].
package parti

import (
	"fmt"
	"sort"
)

// Dist is the translation table of a distributed index space.
type Dist struct {
	NProc int
	Owner []int32   // global -> owning processor
	Local []int32   // global -> local offset on the owner
	L2G   [][]int32 // processor -> local offset -> global
}

// NewDist builds the translation table from a partition assignment.
func NewDist(part []int32, nproc int) (*Dist, error) {
	d := &Dist{
		NProc: nproc,
		Owner: make([]int32, len(part)),
		Local: make([]int32, len(part)),
		L2G:   make([][]int32, nproc),
	}
	for g, p := range part {
		if p < 0 || int(p) >= nproc {
			return nil, fmt.Errorf("parti: global %d assigned to invalid processor %d", g, p)
		}
		d.Owner[g] = p
		d.Local[g] = int32(len(d.L2G[p]))
		d.L2G[p] = append(d.L2G[p], int32(g))
	}
	return d, nil
}

// Count returns the number of indices owned by processor p.
func (d *Dist) Count(p int) int { return len(d.L2G[p]) }

// GhostSpace tracks the ghost slots allocated on each processor across one
// or more schedules, deduplicating by global index through a hash table —
// the mechanism behind PARTI's incremental schedules ("hash tables are used
// to omit duplicate off-processor data references").
type GhostSpace struct {
	d     *Dist
	slot  []map[int32]int32 // per proc: global -> ghost slot (0-based past owned)
	order [][]int32         // per proc: ghost slot -> global
}

// NewGhostSpace creates an empty ghost space over d.
func NewGhostSpace(d *Dist) *GhostSpace {
	gs := &GhostSpace{
		d:     d,
		slot:  make([]map[int32]int32, d.NProc),
		order: make([][]int32, d.NProc),
	}
	for p := range gs.slot {
		gs.slot[p] = make(map[int32]int32)
	}
	return gs
}

// NumGhosts returns the ghost count currently allocated on processor p.
func (gs *GhostSpace) NumGhosts(p int) int { return len(gs.order[p]) }

// Ghosts returns the global indices backing processor p's ghost slots, in
// slot order (ghost slot s holds the value of global Ghosts(p)[s]). The
// returned slice aliases internal state and must not be modified; the
// checkpoint/restart path uses it to rebuild ghost copies without
// communication.
func (gs *GhostSpace) Ghosts(p int) []int32 { return gs.order[p] }

// TotalSize returns owned+ghost storage required on processor p.
func (gs *GhostSpace) TotalSize(p int) int { return gs.d.Count(p) + len(gs.order[p]) }

// Localize translates a global reference on processor p into a local index:
// owned indices map to their local offset, off-processor indices to a ghost
// slot (allocated on first use). This is the inspector's address
// translation.
func (gs *GhostSpace) Localize(p int, global int32) int32 {
	if gs.d.Owner[global] == int32(p) {
		return gs.d.Local[global]
	}
	if s, ok := gs.slot[p][global]; ok {
		return int32(gs.d.Count(p)) + s
	}
	s := int32(len(gs.order[p]))
	gs.slot[p][global] = s
	gs.order[p] = append(gs.order[p], global)
	return int32(gs.d.Count(p)) + s
}

// Schedule is a communication pattern: for each (sender q, receiver p)
// pair, the owned local offsets q must pack and the ghost slots p must
// fill, in matching order.
type Schedule struct {
	d *Dist
	// sendIdx[q][p]: local offsets on q to send to p.
	sendIdx [][][]int32
	// recvSlot[p][q]: absolute local slots on p receiving from q.
	recvSlot [][][]int32
	nItems   int // total ghost values moved per execution
}

// newSchedule returns a schedule over d that moves nothing.
func newSchedule(d *Dist) *Schedule {
	s := &Schedule{d: d, sendIdx: make([][][]int32, d.NProc), recvSlot: make([][][]int32, d.NProc)}
	for p := 0; p < d.NProc; p++ {
		s.sendIdx[p] = make([][]int32, d.NProc)
		s.recvSlot[p] = make([][]int32, d.NProc)
	}
	return s
}

// buildFromGlobals creates a schedule that fills, for each processor p, the
// ghost slots of the listed globals (which must already be allocated in
// gs).
func buildFromGlobals(gs *GhostSpace, newGhosts [][]int32) *Schedule {
	d := gs.d
	s := newSchedule(d)
	for p := 0; p < d.NProc; p++ {
		// Deterministic order: sort by owner then global id.
		gl := append([]int32(nil), newGhosts[p]...)
		sort.Slice(gl, func(a, b int) bool {
			oa, ob := d.Owner[gl[a]], d.Owner[gl[b]]
			if oa != ob {
				return oa < ob
			}
			return gl[a] < gl[b]
		})
		for _, g := range gl {
			q := int(d.Owner[g])
			s.sendIdx[q][p] = append(s.sendIdx[q][p], d.Local[g])
			slot := int32(d.Count(p)) + gs.slot[p][g]
			s.recvSlot[p][q] = append(s.recvSlot[p][q], slot)
			s.nItems++
		}
	}
	return s
}

// BuildSchedule is the inspector: given, per processor, the global indices
// its loops reference (duplicates and owned indices allowed — they are
// hashed out), it allocates ghost slots in gs and returns the schedule that
// fills them. refs[p] lists the references made by processor p.
func BuildSchedule(gs *GhostSpace, refs [][]int32) *Schedule {
	d := gs.d
	newGhosts := make([][]int32, d.NProc)
	for p := 0; p < d.NProc; p++ {
		for _, g := range refs[p] {
			if d.Owner[g] == int32(p) {
				continue
			}
			if _, ok := gs.slot[p][g]; ok {
				continue // duplicate (hash table dedup)
			}
			gs.Localize(p, g)
			newGhosts[p] = append(newGhosts[p], g)
		}
	}
	return buildFromGlobals(gs, newGhosts)
}

// BuildIncremental is BuildSchedule with existing coverage made explicit:
// identical behaviour (ghosts already allocated in gs are skipped), but it
// also reports how many references were satisfied by pre-existing
// schedules, which is the measurement behind the paper's incremental-
// schedule optimization.
func BuildIncremental(gs *GhostSpace, refs [][]int32) (sched *Schedule, reused int) {
	d := gs.d
	for p := 0; p < d.NProc; p++ {
		seen := make(map[int32]bool)
		for _, g := range refs[p] {
			if d.Owner[g] != int32(p) && !seen[g] {
				seen[g] = true
				if _, ok := gs.slot[p][g]; ok {
					reused++
				}
			}
		}
	}
	return BuildSchedule(gs, refs), reused
}

// Items returns the number of ghost values moved per execution.
func (s *Schedule) Items() int { return s.nItems }

// Messages returns the number of point-to-point messages per execution
// (one per communicating pair and direction).
func (s *Schedule) Messages() int {
	n := 0
	for q := range s.sendIdx {
		for p := range s.sendIdx[q] {
			if len(s.sendIdx[q][p]) > 0 {
				n++
			}
		}
	}
	return n
}

// PairVolumes returns, for each (sender, receiver) pair with traffic, the
// number of values exchanged. Used by the Delta machine model.
func (s *Schedule) PairVolumes() map[[2]int]int {
	out := make(map[[2]int]int)
	for q := range s.sendIdx {
		for p := range s.sendIdx[q] {
			if n := len(s.sendIdx[q][p]); n > 0 {
				out[[2]int{q, p}] = n
			}
		}
	}
	return out
}

// Merge is PARTI's schedule merging: it returns the schedule that moves, in
// one execution, everything the given schedules move one after the other —
// per (sender, receiver) pair the members' lists concatenated in argument
// order, so a pair the members reach in k messages is reached in one. The
// members must be schedules over one ghost space filling disjoint slots,
// which schedules built incrementally on each other are; nil members are
// skipped. A gather through the merged schedule stores exactly what the
// members' gathers store. A scatter-add delivers the same contributions,
// but an owner that the members reach from several peers adds them peer by
// peer instead of member by member.
func Merge(scheds ...*Schedule) *Schedule {
	members := make([]*Schedule, 0, len(scheds))
	for _, m := range scheds {
		if m == nil {
			continue
		}
		if len(members) > 0 && m.d != members[0].d {
			panic("parti: Merge of schedules over different distributions")
		}
		members = append(members, m)
	}
	if len(members) == 0 {
		return nil
	}
	d := members[0].d
	s := newSchedule(d)
	for q := 0; q < d.NProc; q++ {
		for p := 0; p < d.NProc; p++ {
			n := 0
			for _, m := range members {
				n += len(m.sendIdx[q][p])
			}
			if n == 0 {
				continue
			}
			send, recv := make([]int32, 0, n), make([]int32, 0, n)
			for _, m := range members {
				send = append(send, m.sendIdx[q][p]...)
				recv = append(recv, m.recvSlot[p][q]...)
			}
			s.sendIdx[q][p], s.recvSlot[p][q] = send, recv
			s.nItems += n
		}
	}
	return s
}
