package dmsolver

import (
	"sync"

	"eul3d/internal/parti"
	"eul3d/internal/simnet"
)

// The two executors of the program in ops.go. A driver owns what an
// execution mode decides — which processors' compute phases run on the
// calling goroutine, and the discipline under which an exchange or a
// reduction completes (and how it fails) — and nothing of the cycle: the
// exchange plan is the program's.

// driver runs the program for a range of processors.
type driver interface {
	// procs returns the processors [lo, hi) whose compute phases this
	// executor runs (see each). It is a range and sum takes a slice, not
	// closures, because a closure passed through the interface escapes: one
	// heap allocation per phase where the program now makes none.
	procs() (lo, hi int)
	// exchange executes schedule sch in direction dir on the arrays a of
	// level lev — one message per neighbour carrying all of them — and
	// returns once the data this executor's processors receive has landed,
	// or with the run's error, on every executor alike.
	exchange(dir parti.Dir, sch *parti.Schedule, lev *Level, a parti.Arrays) error
	// sum returns part[0] + part[1] + ... in processor order once every
	// processor's entry is written; part may be rewritten after it returns.
	sum(part []float64) (float64, error)
}

// count tallies one execution of an exchange in direction dir. An exchange
// has no other class: whatever it carries, a state array leads it (see
// CommCounters).
func (s *Solver) count(dir parti.Dir) {
	if dir == parti.Gather {
		s.Comm.GatherState++
	} else {
		s.Comm.ScatterState++
	}
}

func total(part []float64) float64 {
	sum := 0.0
	for _, v := range part {
		sum += v
	}
	return sum
}

// ---- sequential driver ----

// seqDriver runs every processor's phases in turn on the calling goroutine
// and completes an exchange as one whole-schedule PARTI collective: all
// sends, then all receives.
type seqDriver struct{ s *Solver }

func (d seqDriver) procs() (lo, hi int) { return 0, d.s.NProc }

func (d seqDriver) sum(part []float64) (float64, error) { return total(part), nil }

func (d seqDriver) exchange(dir parti.Dir, sch *parti.Schedule, lev *Level, a parti.Arrays) error {
	s, tl := d.s, d.s.st.commLine()
	s.count(dir)
	tl.mark(spanCompute, dir, lev.Index)
	err := sch.Exchange(s.Fabric, dir, a)
	tl.mark(spanCollective, dir, lev.Index)
	return err
}

// Cycle performs one multigrid cycle (or a plain time step for a single
// level) and returns the fine-grid residual norm.
func (s *Solver) Cycle() (float64, error) {
	return s.cycle(seqDriver{s}, 0)
}

// ---- MIMD driver ----

// mimdRun is what the processors of one concurrent cycle share: the
// barrier that separates exchange halves and the first error any of them
// met.
type mimdRun struct {
	s   *Solver
	bar *simnet.Barrier
	mu  sync.Mutex
	err error
}

// mimdDriver runs processor p's phases on p's own goroutine and completes
// an exchange bulk-synchronously — p's send half, a barrier, p's receive
// half, a barrier: all sends are posted before any receive matches, the
// discipline of the NX message layer.
type mimdDriver struct {
	*mimdRun
	p int
}

// fail records the first error.
func (r *mimdRun) fail(err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

func (r *mimdRun) firstErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// sync joins the barrier and returns the run's first error, nil while it is
// healthy. The verdict is evaluated once, by the last processor to arrive,
// and shared with all (Barrier.AwaitCheck), so every processor takes the
// same continue/bail decision and the bulk-synchronous control flow stays
// in lockstep even when an error lands mid-phase.
func (r *mimdRun) sync() error {
	if r.bar.AwaitCheck(func() bool { return r.firstErr() == nil }) {
		return nil
	}
	return r.firstErr()
}

func (d *mimdDriver) procs() (lo, hi int) { return d.p, d.p + 1 }

func (d *mimdDriver) sum(part []float64) (float64, error) {
	if err := d.sync(); err != nil {
		return 0, err
	}
	return total(part), d.sync()
}

// exchange also lays processor p's timeline down as it goes (trace.go), and
// processor 0 keeps the counters for all.
func (d *mimdDriver) exchange(dir parti.Dir, sch *parti.Schedule, lev *Level, a parti.Arrays) error {
	s, p, tl := d.s, d.p, d.s.st.procLine(d.p)
	if p == 0 {
		s.count(dir)
	}
	tl.mark(spanCompute, dir, 0)
	d.fail(sch.Send(s.Fabric, dir, p, a))
	tl.mark(spanSend, dir, 0)
	err := d.sync()
	tl.mark(spanBarrier, dir, 0)
	if err != nil {
		return err
	}
	d.fail(sch.Recv(s.Fabric, dir, p, a))
	tl.mark(spanRecv, dir, 0)
	err = d.sync()
	tl.mark(spanBarrier, dir, 0)
	return err
}

// CycleConcurrent performs one solver cycle with a goroutine per simulated
// processor, returning the fine-grid residual norm.
func (s *Solver) CycleConcurrent() (float64, error) {
	r := &mimdRun{s: s, bar: simnet.NewBarrier(s.NProc)}
	procs, norms := make([]mimdDriver, s.NProc), make([]float64, s.NProc)
	var wg sync.WaitGroup
	for p := 0; p < s.NProc; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			procs[p] = mimdDriver{r, p}
			norms[p], _ = s.cycle(&procs[p], 0)
		}(p)
	}
	wg.Wait()
	return norms[0], r.err
}
