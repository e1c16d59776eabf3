package parti

import (
	"fmt"

	"eul3d/internal/euler"
	"eul3d/internal/simnet"
)

// The executors. An exchange runs a schedule in one direction over a list
// of arrays, and is a send half and a receive half per processor: Exchange
// loops the halves over all processors (what the distributed solver's
// sequential driver calls); its MIMD driver runs one goroutine per
// processor, each calling its own halves between barriers. Every array of
// the list travels in the same message — one per neighbour per exchange,
// the paper's aggregation — packed straight into the buffer the fabric
// lends the sender and unpacked straight out of the one it lends the
// receiver.

// Dir is the direction a schedule is executed in.
type Dir int

const (
	// Gather copies owners' values into the ghost slots that mirror them.
	Gather Dir = iota
	// ScatterAdd is Gather's transpose: ghost-slot values are sent back to
	// their owners and accumulated there, and the ghost slots are zeroed.
	// This closes the edge loops whose cross-partition edges accumulated
	// into ghosts.
	ScatterAdd
)

// maxArrays is how many arrays of each element kind one exchange carries at
// most: the distributed solver's widest, stage 0's scatter-add, is two
// state arrays and three scalars.
const maxArrays = 3

// Arrays lists the distributed arrays of one exchange, each laid out
// [processor][owned | ghosts]; nil entries end a list. There are two
// element kinds: state arrays — which is also what the edge kernels'
// blocks are, one State record a vertex — and scalar arrays. It is a
// fixed-size value so that an exchange plan can be passed through an
// interface without allocating. A message is laid out array-major: all of
// the pair's scheduled values of States[0], then of States[1], then the
// Floats.
type Arrays struct {
	States [maxArrays][][]euler.State
	Floats [maxArrays][][]float64
}

// States lists state arrays for an exchange.
func States(a ...[][]euler.State) (x Arrays) {
	if copy(x.States[:], a) < len(a) {
		panic("parti: more state arrays than one exchange carries")
	}
	return x
}

// Floats lists scalar arrays for an exchange.
func Floats(a ...[][]float64) (x Arrays) {
	if copy(x.Floats[:], a) < len(a) {
		panic("parti: more scalar arrays than one exchange carries")
	}
	return x
}

// And returns x with, for every element kind y lists arrays of, y's list in
// place of x's: States(a, b).And(Floats(c)) carries all three.
func (x Arrays) And(y Arrays) Arrays {
	if y.States[0] != nil {
		x.States = y.States
	}
	if y.Floats[0] != nil {
		x.Floats = y.Floats
	}
	return x
}

// Width returns the number of floats the exchange moves per scheduled item.
func (x Arrays) Width() int {
	w := 0
	for _, a := range x.States {
		if a != nil {
			w += euler.NVar
		}
	}
	for _, a := range x.Floats {
		if a != nil {
			w++
		}
	}
	return w
}

// lists returns, for processor a of an exchange in direction dir, the
// per-peer lists of local indices a packs from (send) and unpacks into
// (recv): a gather reads owned offsets and fills ghost slots, a scatter-add
// reads ghost slots and accumulates into owned offsets.
func (s *Schedule) lists(dir Dir, a int) (send, recv [][]int32) {
	if dir == Gather {
		return s.sendIdx[a], s.recvSlot[a]
	}
	return s.recvSlot[a], s.sendIdx[a]
}

// Send is processor a's send half of an exchange: one message to every
// peer the schedule pairs it with, carrying every array of x. A scatter-add
// zeroes the ghost slots it has packed.
func (s *Schedule) Send(f *simnet.Fabric, dir Dir, a int, x Arrays) error {
	send, _ := s.lists(dir, a)
	w := x.Width()
	for b, list := range send {
		if len(list) == 0 {
			continue
		}
		buf, err := f.Begin(a, b, len(list)*w)
		if err != nil {
			return err
		}
		at := buf
		for _, arr := range x.States {
			if arr == nil {
				break
			}
			d := arr[a]
			for i, li := range list {
				*(*euler.State)(at[i*euler.NVar:]) = d[li]
				if dir == ScatterAdd {
					d[li] = euler.State{}
				}
			}
			at = at[len(list)*euler.NVar:]
		}
		for _, arr := range x.Floats {
			if arr == nil {
				break
			}
			d := arr[a]
			for i, li := range list {
				at[i] = d[li]
				if dir == ScatterAdd {
					d[li] = 0
				}
			}
			at = at[len(list):]
		}
		f.Commit(a, b, buf)
	}
	return nil
}

// Recv is processor a's receive half of an exchange: it takes the message
// of every peer the schedule pairs it with (healing transport faults, see
// recover.go) and stores (Gather) or accumulates (ScatterAdd) its values.
func (s *Schedule) Recv(f *simnet.Fabric, dir Dir, a int, x Arrays) error {
	_, recv := s.lists(dir, a)
	w := x.Width()
	for b, list := range recv {
		if len(list) == 0 {
			continue
		}
		buf, err := recvHealing(f, a, b)
		if err != nil {
			return err
		}
		if len(buf) != len(list)*w {
			return fmt.Errorf("parti: exchange %d<-%d: got %d floats, want %d", a, b, len(buf), len(list)*w)
		}
		for _, arr := range x.States {
			if arr == nil {
				break
			}
			d := arr[a]
			if dir == Gather {
				for i, li := range list {
					d[li] = *(*euler.State)(buf[i*euler.NVar:])
				}
			} else {
				for i, li := range list {
					v, in := &d[li], (*euler.State)(buf[i*euler.NVar:])
					for k := range v {
						v[k] += in[k]
					}
				}
			}
			buf = buf[len(list)*euler.NVar:]
		}
		for _, arr := range x.Floats {
			if arr == nil {
				break
			}
			d := arr[a]
			if dir == Gather {
				for i, li := range list {
					d[li] = buf[i]
				}
			} else {
				for i, li := range list {
					d[li] += buf[i]
				}
			}
			buf = buf[len(list):]
		}
	}
	return nil
}

// Exchange executes the schedule as one collective: every processor's send
// half, then every processor's receive half.
func (s *Schedule) Exchange(f *simnet.Fabric, dir Dir, x Arrays) error {
	for a := 0; a < s.d.NProc; a++ {
		if err := s.Send(f, dir, a, x); err != nil {
			return err
		}
	}
	for a := 0; a < s.d.NProc; a++ {
		if err := s.Recv(f, dir, a, x); err != nil {
			return err
		}
	}
	return nil
}

// GatherStates executes the schedule for per-processor State arrays laid
// out [owned | ghosts]: owners pack the scheduled values (one message per
// destination) and receivers store them into ghost slots.
func (s *Schedule) GatherStates(f *simnet.Fabric, data [][]euler.State) error {
	return s.Exchange(f, Gather, States(data))
}

// ScatterAddStates executes the transpose of the gather.
func (s *Schedule) ScatterAddStates(f *simnet.Fabric, data [][]euler.State) error {
	return s.Exchange(f, ScatterAdd, States(data))
}

// GatherFloats is GatherStates for scalar per-vertex arrays.
func (s *Schedule) GatherFloats(f *simnet.Fabric, data [][]float64) error {
	return s.Exchange(f, Gather, Floats(data))
}

// ScatterAddFloats is ScatterAddStates for scalar per-vertex arrays.
func (s *Schedule) ScatterAddFloats(f *simnet.Fabric, data [][]float64) error {
	return s.Exchange(f, ScatterAdd, Floats(data))
}
