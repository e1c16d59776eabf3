package multigrid

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// fakeLevels is an FMGLevels that runs nothing: it records every hook
// Cycle and FMG call, as "E<l>" (Step), "R<l>" (Restrict), "I<l>" (Correct)
// and "L<l>" (Lift), with each call's fresh argument (false but for a
// fresh Step), and fails the call numbered failAt (counting from 0; -1
// never fails).
type fakeLevels struct {
	calls  []string
	fresh  []bool
	failAt int
}

var errHook = errors.New("hook failed")

func (f *fakeLevels) hook(kind string, l int, fresh bool) error {
	f.calls = append(f.calls, fmt.Sprintf("%s%d", kind, l))
	f.fresh = append(f.fresh, fresh)
	if len(f.calls)-1 == f.failAt {
		return errHook
	}
	return nil
}

func (f *fakeLevels) Step(l int, fresh bool) (float64, error) { return 1, f.hook("E", l, fresh) }
func (f *fakeLevels) Restrict(l int) error                    { return f.hook("R", l, false) }
func (f *fakeLevels) Correct(l int) error                     { return f.hook("I", l, false) }
func (f *fakeLevels) Lift(l int) error                        { return f.hook("L", l, false) }

// TestCycleMarksFreshVisits: Cycle marks a step fresh exactly when it is
// the first visit of its level after the restriction onto it — the call
// before it is Restrict(l-1) — for V and W cycles on 2, 3 and 4 levels and
// under FMG, whose top-level cycles (after a Lift, or at the start) are
// never fresh. Schedule's events carry the same marks, and the ledger's
// fresh steps are as many as its corrections.
func TestCycleMarksFreshVisits(t *testing.T) {
	check := func(what string, f *fakeLevels) {
		t.Helper()
		for i, c := range f.calls {
			if c[0] != 'E' {
				if f.fresh[i] {
					t.Errorf("%s: %s marked fresh", what, c)
				}
				continue
			}
			l := int(c[1] - '0')
			want := i > 0 && f.calls[i-1] == fmt.Sprintf("R%d", l-1)
			if f.fresh[i] != want {
				t.Errorf("%s: call %d (%s) fresh = %v, want %v: %v", what, i, c, f.fresh[i], want, f.calls)
			}
		}
	}
	for n := 2; n <= 4; n++ {
		for _, gamma := range []int{1, 2} {
			what := fmt.Sprintf("%d levels, gamma %d", n, gamma)
			f := &fakeLevels{failAt: -1}
			if _, err := Cycle(f, 0, n, gamma); err != nil {
				t.Fatal(err)
			}
			check(what, f)
			var fromCalls, fromSchedule []bool
			for i, c := range f.calls {
				if c[0] == 'E' {
					fromCalls = append(fromCalls, f.fresh[i])
				}
			}
			fresh, corrections := 0, 0
			for _, e := range Schedule(n, gamma) {
				if e.Kind == EulerStep {
					fromSchedule = append(fromSchedule, e.Fresh)
					if e.Fresh {
						fresh++
					}
				} else {
					corrections++
				}
			}
			if !slices.Equal(fromCalls, fromSchedule) {
				t.Errorf("%s: Schedule marks %v, Cycle %v", what, fromSchedule, fromCalls)
			}
			if fresh == 0 || fresh != corrections {
				t.Errorf("%s: %d fresh steps for %d restrictions", what, fresh, corrections)
			}

			f = &fakeLevels{failAt: -1}
			if err := FMG(f, n, gamma, 2); err != nil {
				t.Fatal(err)
			}
			check("FMG, "+what, f)
		}
	}
}

// TestCycleHookOrderIsFigure1: for 1–4 levels, V and W, the steps and
// corrections Cycle asks for render to Figure 1's strings, and every step
// above the coarsest level is followed at once by that level's restriction.
func TestCycleHookOrderIsFigure1(t *testing.T) {
	want := map[[2]int]string{
		{1, 1}: "E0",
		{1, 2}: "E0",
		{2, 1}: "E0 E1 I0",
		{2, 2}: "E0 E1 I0",
		{3, 1}: "E0 E1 E2 I1 I0",
		{3, 2}: "E0 E1 E2 I1 E1 E2 I1 I0",
		{4, 1}: "E0 E1 E2 E3 I2 I1 I0",
		{4, 2}: "E0 E1 E2 E3 I2 E2 E3 I2 I1 E1 E2 E3 I2 E2 E3 I2 I1 I0",
	}
	for key, w := range want {
		n, gamma := key[0], key[1]
		f := &fakeLevels{failAt: -1}
		norm, err := Cycle(f, 0, n, gamma)
		if err != nil || norm != 1 {
			t.Fatalf("%d levels, gamma %d: Cycle = %v, %v; want the fine step's norm 1, nil", n, gamma, norm, err)
		}
		var figure []string
		for i, c := range f.calls {
			if c[0] == 'E' && c != fmt.Sprintf("E%d", n-1) {
				if i+1 == len(f.calls) || f.calls[i+1] != "R"+c[1:] {
					t.Errorf("%d levels, gamma %d: %s not followed by its restriction: %v", n, gamma, c, f.calls)
				}
			}
			if c[0] != 'R' {
				figure = append(figure, c)
			}
		}
		if got := strings.Join(figure, " "); got != w {
			t.Errorf("%d levels, gamma %d: hooks render to %q, want %q", n, gamma, got, w)
		}
		if got := FormatSchedule(Schedule(n, gamma)); got != w {
			t.Errorf("%d levels, gamma %d: Schedule = %q, want %q", n, gamma, got, w)
		}
	}
}

// TestCycleStopsAtFirstError: an error from any hook, at any level, is what
// Cycle returns, and no hook runs after it.
func TestCycleStopsAtFirstError(t *testing.T) {
	for n := 1; n <= 4; n++ {
		for _, gamma := range []int{1, 2} {
			all := &fakeLevels{failAt: -1}
			Cycle(all, 0, n, gamma)
			for k := range all.calls {
				f := &fakeLevels{failAt: k}
				if _, err := Cycle(f, 0, n, gamma); err != errHook {
					t.Fatalf("%d levels, gamma %d, failing %s (call %d): err = %v", n, gamma, all.calls[k], k, err)
				}
				if !slices.Equal(f.calls, all.calls[:k+1]) {
					t.Fatalf("%d levels, gamma %d, failing %s (call %d): hooks ran %v, want %v",
						n, gamma, all.calls[k], k, f.calls, all.calls[:k+1])
				}
			}
		}
	}
}

// TestVisitsCountSteps: Visits is the number of Step calls Cycle makes on
// each level, and a step on the coarsest level is never repeated back to
// back.
func TestVisitsCountSteps(t *testing.T) {
	for n := 1; n <= 5; n++ {
		for _, gamma := range []int{1, 2} {
			f := &fakeLevels{failAt: -1}
			Cycle(f, 0, n, gamma)
			steps := make([]int, n)
			for _, c := range f.calls {
				if c[0] == 'E' {
					steps[c[1]-'0']++
				}
			}
			if got := Visits(n, gamma); !slices.Equal(got, steps) {
				t.Errorf("%d levels, gamma %d: Visits = %v, Step calls %v", n, gamma, got, steps)
			}
			if n > 1 && gamma == 2 && steps[n-1] != steps[n-2] {
				t.Errorf("%d levels, W-cycle: coarsest level stepped %d times, its parent %d", n, steps[n-1], steps[n-2])
			}
		}
	}
}
