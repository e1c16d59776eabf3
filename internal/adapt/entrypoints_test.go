package adapt

import (
	"context"
	"testing"

	"eul3d/internal/dmsolver"
	"eul3d/internal/euler"
	"eul3d/internal/meshgen"
	"eul3d/internal/meshio"
	"eul3d/internal/runloop"
	"eul3d/internal/solver"
)

// seen is what one entry point's run showed: its result, every Progress
// call and a copy of every record its checkpoint sink received.
type seen struct {
	res      *runloop.Result
	progress [][2]float64 // {cycle, norm} per call
	records  []*meshio.Checkpoint
}

// TestEntryPointsAgree: the three entry points are three steppers under one
// loop and take one description of a run, so one runloop.Options — a
// checkpoint sink and a Progress hook included — through the sequential
// driver, the distributed one on a single processor and the adaptive one
// with no epoch due must give one answer: histories and final solutions
// bitwise, summaries equal, the same Progress calls, and records at the same
// cycles with the same history, solution and Mach/AlphaDeg/CFL. Four rows:
// to the cycle limit; to a tolerance met on the way; cancelled from
// Progress at cycle 5; and restored from each entry point's own cycle-4
// record of the first row, which must continue to that row's answer.
func TestEntryPointsAgree(t *testing.T) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(8, 4, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	p := euler.DefaultParams(0.5, 0)
	// 13 cycles, not a multiple of the cadence: the adaptive driver writes
	// no record at an interval's last step, here the run's last.
	const cycles, every, cancelAt = 13, 4, 5
	init := make([]euler.State, m.NV())
	for i := range init {
		init[i] = p.Freestream
	}

	type entry struct {
		name string
		run  func(opt runloop.Options, from *meshio.Checkpoint) (*runloop.Result, error)
	}
	entries := []entry{
		{"solver", func(opt runloop.Options, from *meshio.Checkpoint) (*runloop.Result, error) {
			st := solver.NewSingleGrid(m, p)
			defer st.Close()
			if from != nil {
				if err := st.Restore(from); err != nil {
					return nil, err
				}
			}
			return st.Run(opt)
		}},
		{"dmsolver", func(opt runloop.Options, from *meshio.Checkpoint) (*runloop.Result, error) {
			dm, err := dmsolver.NewSingle(m, make([]int32, m.NV()), 1, p)
			if err != nil {
				return nil, err
			}
			if from != nil {
				if err := dm.Restore(from); err != nil {
					return nil, err
				}
			}
			res, err := dm.Run(opt)
			if err != nil {
				return nil, err
			}
			return &res.Result, nil
		}},
		{"adapt", func(opt runloop.Options, from *meshio.Checkpoint) (*runloop.Result, error) {
			res, err := Run(Options{Mesh: m, Init: init, Params: p, Interval: 10 * cycles, Resume: from, Loop: opt})
			if err != nil {
				return nil, err
			}
			if len(res.Epochs) != 0 {
				t.Fatalf("adaptive run: %d epochs", len(res.Epochs))
			}
			return &res.Result, nil
		}},
	}

	// run hands entry e one Options value, hooks recording into a fresh seen.
	run := func(e entry, tol float64, cancel bool, from *meshio.Checkpoint) *seen {
		s := &seen{}
		ctx, stop := context.WithCancel(context.Background())
		defer stop()
		opt := runloop.Options{
			MaxCycles: cycles, Tolerance: tol, Context: ctx,
			Progress: func(c int, norm float64) {
				s.progress = append(s.progress, [2]float64{float64(c), norm})
				if cancel && c == cancelAt {
					stop()
				}
			},
			CheckpointEvery: every,
			Meta:            runloop.Meta{Mach: 0.5, AlphaDeg: 0},
			OnCheckpoint: func(ck *meshio.Checkpoint) error {
				cp := *ck
				cp.History = append([]float64(nil), ck.History...)
				cp.Sol = append([]euler.State(nil), ck.Sol...)
				s.records = append(s.records, &cp)
				return nil
			},
		}
		res, err := e.run(opt, from)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		s.res = res
		return s
	}

	// agree holds got to want: summary, history, solution, Progress calls
	// and records.
	agree := func(row, name string, got, want *seen) {
		t.Helper()
		g, w := got.res, want.res
		if g.Cycles != w.Cycles || g.InitialNorm != w.InitialNorm || g.FinalNorm != w.FinalNorm ||
			g.Converged != w.Converged || g.Cancelled != w.Cancelled || g.Ordersof10 != w.Ordersof10 {
			t.Errorf("%s: %s summary %d cycles %g -> %g converged=%v cancelled=%v, want %d cycles %g -> %g converged=%v cancelled=%v",
				row, name, g.Cycles, g.InitialNorm, g.FinalNorm, g.Converged, g.Cancelled,
				w.Cycles, w.InitialNorm, w.FinalNorm, w.Converged, w.Cancelled)
		}
		sameRun(t, row+": "+name+" result", g.History, w.History, g.FineSolution, w.FineSolution)
		if len(got.progress) != len(want.progress) {
			t.Fatalf("%s: %s saw %d Progress calls, want %d", row, name, len(got.progress), len(want.progress))
		}
		for i := range want.progress {
			if got.progress[i] != want.progress[i] {
				t.Fatalf("%s: %s Progress call %d = %v, want %v", row, name, i, got.progress[i], want.progress[i])
			}
		}
		if len(got.records) != len(want.records) {
			t.Fatalf("%s: %s received %d records, want %d", row, name, len(got.records), len(want.records))
		}
		for i, wr := range want.records {
			gr := got.records[i]
			if gr.Cycle != wr.Cycle || gr.Mach != wr.Mach || gr.AlphaDeg != wr.AlphaDeg || gr.CFL != wr.CFL {
				t.Fatalf("%s: %s record %d at cycle %d (Mach %g, alpha %g, CFL %g), want cycle %d (%g, %g, %g)",
					row, name, i, gr.Cycle, gr.Mach, gr.AlphaDeg, gr.CFL, wr.Cycle, wr.Mach, wr.AlphaDeg, wr.CFL)
			}
			sameRun(t, row+": "+name+" record", gr.History, wr.History, gr.Sol, wr.Sol)
		}
	}

	full := make([]*seen, len(entries))
	for i, e := range entries {
		full[i] = run(e, 0, false, nil)
		agree("to the limit", e.name, full[i], full[0])
	}
	if rs := full[0].records; len(rs) != cycles/every || rs[0].Cycle != every || rs[0].CFL != p.CFL || rs[0].Mach != 0.5 {
		t.Fatalf("records %d, the first at cycle %d with CFL %g, Mach %g", len(rs), rs[0].Cycle, rs[0].CFL, rs[0].Mach)
	}

	var tolRef, cancelRef, restoreRef *seen
	for i, e := range entries {
		got := run(e, 0.9, false, nil)
		if i == 0 {
			tolRef = got
			if !got.res.Converged || got.res.Cycles == cycles {
				t.Fatalf("tolerance 0.9 is not met inside %d cycles; the row tests nothing", cycles)
			}
		}
		agree("to a tolerance", e.name, got, tolRef)

		got = run(e, 0, true, nil)
		if !got.res.Cancelled || got.res.Cycles != cancelAt+1 {
			t.Fatalf("cancelled: %s stopped after %d cycles, cancelled=%v; want %d, true", e.name, got.res.Cycles, got.res.Cancelled, cancelAt+1)
		}
		if i == 0 {
			cancelRef = got
		}
		agree("cancelled", e.name, got, cancelRef)

		from := full[i].records[0]
		got = run(e, 0, false, from)
		sameRun(t, "restored: "+e.name+" against the uninterrupted run",
			got.res.History, full[0].res.History, got.res.FineSolution, full[0].res.FineSolution)
		if i == 0 {
			restoreRef = got
		}
		agree("restored", e.name, got, restoreRef)
	}
}

// sameRun holds a history and a solution to another pair, bitwise.
func sameRun(t *testing.T, what string, h, wantH []float64, w, wantW []euler.State) {
	t.Helper()
	if len(h) != len(wantH) || len(w) != len(wantW) {
		t.Fatalf("%s: %d history entries and %d states, want %d and %d", what, len(h), len(w), len(wantH), len(wantW))
	}
	for i := range wantH {
		if h[i] != wantH[i] {
			t.Fatalf("%s: history[%d] = %.17g, want %.17g", what, i, h[i], wantH[i])
		}
	}
	for i := range wantW {
		if w[i] != wantW[i] {
			t.Fatalf("%s: solution vertex %d differs", what, i)
		}
	}
}
