package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"eul3d/internal/euler"
)

// checkDivergence calls os.Exit, so the failing paths run in a re-exec'd
// copy of the test binary. Each mode checks that the report localizes the
// blow-up: the first non-finite field and vertex, plus the scenario name
// when one is set.
func TestCheckDivergenceExit(t *testing.T) {
	if h := os.Getenv("EUL3D_TEST_DIVERGE"); h != "" {
		switch h {
		case "nan":
			checkDivergence("", []float64{1, 0.5, math.NaN()}, []euler.State{
				{1, 0, 0, 0, 2.5},
				{1, math.NaN(), 0, 0, 2.5},
			})
		case "inf":
			checkDivergence("sod", []float64{1, math.Inf(1)}, []euler.State{
				{1, 0, 0, 0, math.Inf(1)},
			})
		}
		os.Exit(0) // checkDivergence should have exited already
	}

	for mode, want := range map[string][]string{
		"nan": {"solution diverged", "first non-finite value is rho-u at vertex 1"},
		"inf": {`scenario "sod" diverged`, "first non-finite value is rho-E at vertex 0"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=TestCheckDivergenceExit")
		cmd.Env = append(os.Environ(), "EUL3D_TEST_DIVERGE="+mode)
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("%s history: exited 0, want nonzero\n%s", mode, out)
		}
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("%s history: %v", mode, err)
		}
		if code := ee.ExitCode(); code == 0 {
			t.Errorf("%s history: exit code %d, want nonzero", mode, code)
		}
		for _, w := range want {
			if !strings.Contains(string(out), w) {
				t.Errorf("%s history: output missing %q:\n%s", mode, w, out)
			}
		}
	}
}

// mainIfReexeced runs main, and exits, when the test binary was re-exec'd
// by refuses: main's refusals end in log.Fatalf.
func mainIfReexeced() {
	if args := os.Getenv("EUL3D_TEST_MAIN_ARGS"); args != "" {
		os.Args = append(os.Args[:1], strings.Fields(args)...)
		main()
		os.Exit(0) // main should have exited already
	}
}

// refuses runs eul3d with args in a re-exec'd copy of the test binary,
// through the named test, and requires a nonzero exit whose output
// contains want.
func refuses(t *testing.T, test, args, want string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$")
	cmd.Env = append(os.Environ(), "EUL3D_TEST_MAIN_ARGS="+args)
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() == 0 {
		t.Fatalf("eul3d %s: err %v, want a nonzero exit\n%s", args, err, out)
	}
	if !strings.Contains(string(out), want) {
		t.Errorf("eul3d %s: output missing %q:\n%s", args, want, out)
	}
}

// TestFMGRejectsAReplacedStart: -fmg builds the fine solution that
// -init-solution and -resume would overwrite, and the distributed solver
// has no FMG, so eul3d refuses each pairing before it loads or builds
// anything.
func TestFMGRejectsAReplacedStart(t *testing.T) {
	mainIfReexeced()
	for _, tc := range []struct{ args, flag string }{
		{"-fmg 20 -init-solution missing.sol", "-init-solution"},
		{"-fmg 20 -resume missing.ckpt", "-resume"},
		{"-fmg 20 -nproc 4", "-nproc"},
	} {
		refuses(t, "TestFMGRejectsAReplacedStart", tc.args, "-fmg builds the initial solution and is incompatible with "+tc.flag)
	}
}

// TestIgnoredFlagsRejected: a flag the chosen path would silently ignore
// is refused before anything is loaded or built — -faults without the
// distributed solver; -workers, -init-solution and -contours with it; and
// -checkpoint on the adaptive path, which writes no checkpoint.
func TestIgnoredFlagsRejected(t *testing.T) {
	mainIfReexeced()
	for _, tc := range []struct{ args, want string }{
		{"-faults seed=7,crash=1@4", "-faults requires the distributed solver (-nproc)"},
		{"-nproc 4 -workers 2", "-nproc runs the distributed solver and is incompatible with -workers"},
		{"-nproc 4 -init-solution missing.sol", "-nproc runs the distributed solver and is incompatible with -init-solution"},
		{"-nproc 4 -contours", "-nproc runs the distributed solver and is incompatible with -contours"},
		{"-adapt -checkpoint run.ckpt", "-adapt is incompatible with -checkpoint"},
	} {
		refuses(t, "TestIgnoredFlagsRejected", tc.args, tc.want)
	}
}

// runs runs eul3d with args in a re-exec'd copy of the test binary,
// through the named test, requires a zero exit and returns the output.
func runs(t *testing.T, test, args string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$")
	cmd.Env = append(os.Environ(), "EUL3D_TEST_MAIN_ARGS="+args)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("eul3d %s: %v\n%s", args, err, out)
	}
	return string(out)
}

// TestEveryStrategyHonoursFMGContoursAndTrace: every in-process engine is
// the pooled engine on one of two layouts, so -fmg runs on the pooled
// multigrid, -contours prints the raster after a single-grid run and
// -trace records the sequential multigrid. -fmg stays refused where there
// is no coarse grid to start from.
func TestEveryStrategyHonoursFMGContoursAndTrace(t *testing.T) {
	mainIfReexeced()
	small := "-nx 10 -ny 6 -nz 4 -levels 3 -cycles 3 -tol 0 -log-every 0 "

	if out := runs(t, "TestEveryStrategyHonoursFMGContoursAndTrace", small+"-strategy w -workers 2 -fmg 3"); !strings.Contains(out, "full-multigrid initialization: 3 cycles per coarse level") {
		t.Errorf("-strategy w -workers 2 -fmg 3 did not initialize:\n%s", out)
	}
	if out := runs(t, "TestEveryStrategyHonoursFMGContoursAndTrace", small+"-strategy single -workers 2 -contours"); !strings.Contains(out, "Mach contours on the mid-span plane:") || !strings.Contains(out, "Mach range [") {
		t.Errorf("-strategy single -workers 2 -contours printed no raster:\n%s", out)
	}
	path := filepath.Join(t.TempDir(), "t.json")
	runs(t, "TestEveryStrategyHonoursFMGContoursAndTrace", small+"-strategy v -trace "+path)
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if b, err := os.ReadFile(path); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("-strategy v -trace: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Error("-strategy v -trace wrote an empty trace")
	}

	refuses(t, "TestEveryStrategyHonoursFMGContoursAndTrace", small+"-strategy single -fmg 3", "-fmg requires a multigrid strategy")
	refuses(t, "TestEveryStrategyHonoursFMGContoursAndTrace", small+"-strategy single -adapt -fmg 3", "-adapt is incompatible with -fmg")
}

// A clean (finite) history must not exit, whatever the solution holds.
func TestCheckDivergenceClean(t *testing.T) {
	checkDivergence("", []float64{1, 0.5, 0.25, 1e-9}, []euler.State{{1, 0, 0, 0, 2.5}})
	checkDivergence("sod", nil, nil)
}

// firstNonFinite scans vertex-major: the lowest offending vertex wins,
// and within a vertex the lowest field.
func TestFirstNonFinite(t *testing.T) {
	if v, f := firstNonFinite(nil); v != -1 || f != -1 {
		t.Fatalf("empty solution: got (%d,%d), want (-1,-1)", v, f)
	}
	w := []euler.State{
		{1, 0, 0, 0, 2.5},
		{1, 0, math.Inf(-1), 0, math.NaN()},
		{math.NaN(), 0, 0, 0, 2.5},
	}
	if v, f := firstNonFinite(w); v != 1 || f != 2 {
		t.Fatalf("got vertex %d field %d, want 1/2 (rho-v)", v, f)
	}
}
