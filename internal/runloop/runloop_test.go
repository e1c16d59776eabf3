package runloop

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"eul3d/internal/euler"
)

// scripted is a stepper that plays back a script: entry i is what the i-th
// call of Cycle answers — a norm, or an error (a Rewind among them). It
// records the cycle index of every call.
type scripted struct {
	script []any
	calls  []int
}

func (s *scripted) Cycle(c int) (float64, error) {
	a := s.script[len(s.calls)]
	s.calls = append(s.calls, c)
	if err, ok := a.(error); ok {
		return 0, err
	}
	return a.(float64), nil
}

func (s *scripted) Solution() []euler.State { return []euler.State{{float64(len(s.calls))}} }

// halving answers cycle c with 2^-c whatever the call count, so a replayed
// cycle reproduces its norm.
func halving(n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = math.Pow(0.5, float64(i))
	}
	return out
}

func TestRun(t *testing.T) {
	errBoom := errors.New("boom")
	errDisk := errors.New("disk full")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name   string
		script []any
		prior  []float64
		opt    Options
		// cancelAt > 0 cancels the context from Progress after that cycle.
		cancelAt int
		ckptErr  map[int]error // checkpoint hook's answer by cycle count

		wantErr   error
		wantCalls []int
		wantHist  []float64
		wantSaved []int // cycle counts the checkpoint hook saw
		check     func(t *testing.T, r *Result)
	}{
		{
			name: "runs MaxCycles", script: halving(4), opt: Options{MaxCycles: 4},
			wantCalls: []int{0, 1, 2, 3}, wantHist: []float64{1, 0.5, 0.25, 0.125},
			check: func(t *testing.T, r *Result) {
				if r.Converged || r.Cancelled || r.Diverged {
					t.Errorf("flags set on a plain run: %+v", r)
				}
				if r.InitialNorm != 1 || r.FinalNorm != 0.125 || math.Abs(r.Ordersof10-math.Log10(8)) > 1e-15 {
					t.Errorf("summary %g -> %g (%g orders)", r.InitialNorm, r.FinalNorm, r.Ordersof10)
				}
				if len(r.FineSolution) != 1 || r.FineSolution[0][0] != 4 {
					t.Errorf("FineSolution is not the stepper's at the end: %v", r.FineSolution)
				}
			},
		},
		{
			name: "cancelled before the first cycle", script: halving(4),
			opt:       Options{MaxCycles: 4, Context: cancelled},
			wantCalls: nil, wantHist: nil,
			check: func(t *testing.T, r *Result) {
				if !r.Cancelled || r.Cycles != 0 {
					t.Errorf("cancelled=%v cycles=%d", r.Cancelled, r.Cycles)
				}
			},
		},
		{
			name: "cancelled mid-run", script: halving(10), opt: Options{MaxCycles: 10}, cancelAt: 2,
			wantCalls: []int{0, 1, 2}, wantHist: []float64{1, 0.5, 0.25},
			check: func(t *testing.T, r *Result) {
				if !r.Cancelled {
					t.Error("not marked Cancelled")
				}
			},
		},
		{
			name: "tolerance met at cycle 3", script: halving(10),
			opt:       Options{MaxCycles: 10, Tolerance: 0.2},
			wantCalls: []int{0, 1, 2, 3}, wantHist: []float64{1, 0.5, 0.25, 0.125},
			check: func(t *testing.T, r *Result) {
				if !r.Converged {
					t.Error("not marked Converged")
				}
			},
		},
		{
			name:   "resumed prefix: MaxCycles is the total",
			script: []any{0.25, 0.125}, prior: []float64{1, 0.5},
			opt:       Options{MaxCycles: 4, Tolerance: 0.2},
			wantCalls: []int{2, 3}, wantHist: []float64{1, 0.5, 0.25, 0.125},
			check: func(t *testing.T, r *Result) {
				// The tolerance is measured against the prefix's first residual.
				if !r.Converged || r.InitialNorm != 1 || r.Cycles != 4 {
					t.Errorf("converged=%v initial=%g cycles=%d", r.Converged, r.InitialNorm, r.Cycles)
				}
			},
		},
		{
			name:   "resumed at MaxCycles runs nothing",
			script: nil, prior: []float64{1, 0.5}, opt: Options{MaxCycles: 2},
			wantCalls: nil, wantHist: []float64{1, 0.5},
		},
		{
			name: "checkpoint cadence", script: halving(7),
			opt:       Options{MaxCycles: 7, CheckpointEvery: 3},
			wantCalls: []int{0, 1, 2, 3, 4, 5, 6}, wantSaved: []int{3, 6},
			wantHist: []float64{1, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625},
		},
		{
			name: "checkpoint error ends the run", script: halving(7),
			opt:     Options{MaxCycles: 7, CheckpointEvery: 2},
			ckptErr: map[int]error{4: errDisk},
			wantErr: errDisk, wantCalls: []int{0, 1, 2, 3}, wantSaved: []int{2, 4},
		},
		{
			name:   "stepper error ends the run",
			script: []any{1.0, errBoom}, opt: Options{MaxCycles: 5},
			wantErr: errBoom, wantCalls: []int{0, 1},
		},
		{
			name: "rewind truncates history and replays",
			// Cycles 0..3, then cycle 4 fails back to 2; the replay of 2 and 3
			// answers differently (a backed-off CFL would), and those stand.
			script:    []any{1.0, 0.5, 0.25, 0.125, Rewind{To: 2}, 0.3, 0.15, 0.07},
			opt:       Options{MaxCycles: 5, CheckpointEvery: 2},
			wantCalls: []int{0, 1, 2, 3, 4, 2, 3, 4}, wantHist: []float64{1, 0.5, 0.3, 0.15, 0.07},
			wantSaved: []int{2, 4, 4},
		},
		{
			name: "rewind budget exhausted",
			// Counting rewinds is the stepper's business: it answers twice
			// with a rewind, then with the error that ends the run.
			script:  []any{1.0, Rewind{To: 0}, 1.0, Rewind{To: 0}, 1.0, errBoom},
			opt:     Options{MaxCycles: 5},
			wantErr: errBoom, wantCalls: []int{0, 1, 0, 1, 0, 1},
		},
		{
			name:   "rewind past the present is an error, not a slice trick",
			script: []any{1.0, Rewind{To: 5}}, opt: Options{MaxCycles: 9},
			wantErr: Rewind{To: 5}, wantCalls: []int{0, 1},
		},
		{
			name:      "non-finite residual stops the run",
			script:    append(halving(2), math.NaN()),
			opt:       Options{MaxCycles: 100, CheckpointEvery: 3, Tolerance: 1e-9},
			wantCalls: []int{0, 1, 2}, wantSaved: nil, // a blown-up state is not checkpointed
			check: func(t *testing.T, r *Result) {
				if !r.Diverged || r.Converged || r.Cycles != 3 || !math.IsNaN(r.History[2]) || !math.IsNaN(r.FinalNorm) {
					t.Errorf("diverged=%v converged=%v cycles=%d history=%v", r.Diverged, r.Converged, r.Cycles, r.History)
				}
			},
		},
		{
			name:   "infinite residual stops the run",
			script: []any{1.0, math.Inf(1)}, opt: Options{MaxCycles: 100},
			wantCalls: []int{0, 1},
			check: func(t *testing.T, r *Result) {
				if !r.Diverged || r.Cycles != 2 {
					t.Errorf("diverged=%v cycles=%d", r.Diverged, r.Cycles)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &scripted{script: tc.script}
			opt := tc.opt
			var progress []int
			if tc.cancelAt > 0 {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				opt.Context = ctx
				opt.Progress = func(c int, _ float64) {
					progress = append(progress, c)
					if c == tc.cancelAt {
						cancel()
					}
				}
			}
			var saves []int
			opt.Checkpoint = func(h []float64) error {
				saves = append(saves, len(h))
				return tc.ckptErr[len(h)]
			}
			res, err := Run(s, tc.prior, opt)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("error %v, want %v", err, tc.wantErr)
			}
			if !reflect.DeepEqual(s.calls, tc.wantCalls) {
				t.Errorf("cycles executed %v, want %v", s.calls, tc.wantCalls)
			}
			if !reflect.DeepEqual(saves, tc.wantSaved) {
				t.Errorf("checkpoints at %v, want %v", saves, tc.wantSaved)
			}
			if tc.wantErr != nil {
				if res != nil {
					t.Error("a failed run returned a result")
				}
				return
			}
			if tc.wantHist != nil || tc.check == nil {
				if len(res.History) != len(tc.wantHist) {
					t.Fatalf("history %v, want %v", res.History, tc.wantHist)
				}
				for i, v := range tc.wantHist {
					if res.History[i] != v {
						t.Fatalf("history %v, want %v", res.History, tc.wantHist)
					}
				}
			}
			if res.Cycles != len(res.History) {
				t.Errorf("Cycles %d with %d history entries", res.Cycles, len(res.History))
			}
			for i, c := range progress {
				if c != i {
					t.Errorf("progress call %d reported cycle %d", i, c)
				}
			}
			if tc.check != nil {
				tc.check(t, res)
			}
		})
	}
}

func TestRunRejectsNoCycles(t *testing.T) {
	if _, err := Run(&scripted{}, nil, Options{}); err == nil {
		t.Fatal("MaxCycles 0 accepted")
	}
}

func TestRunLogLines(t *testing.T) {
	var log bytes.Buffer
	if _, err := Run(&scripted{script: halving(5)}, nil, Options{MaxCycles: 5, LogEvery: 2, Log: &log}); err != nil {
		t.Fatal(err)
	}
	want := "cycle     0  residual 1.000e+00\ncycle     2  residual 2.500e-01\ncycle     4  residual 6.250e-02\n"
	if log.String() != want {
		t.Errorf("log:\n%s\nwant:\n%s", log.String(), want)
	}
}

func TestMetaCheckpoint(t *testing.T) {
	hist := []float64{1, 0.5, 0.25}
	sol := []euler.State{{1, 2, 3, 4, 5}}
	ck := Meta{Mach: 0.7, AlphaDeg: 1.5, CFL: 2.5}.Checkpoint(hist, sol)
	if ck.Cycle != 3 || ck.Mach != 0.7 || ck.AlphaDeg != 1.5 || ck.CFL != 2.5 {
		t.Errorf("checkpoint header %+v", ck)
	}
	if &ck.History[0] != &hist[0] || &ck.Sol[0] != &sol[0] {
		t.Error("the record copies; it is documented to alias")
	}
}
