package main

import (
	"errors"
	"math"
	"os"
	"os/exec"
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

// TestFMGRejectsAReplacedStart: -fmg builds the fine solution that
// -init-solution and -resume would overwrite, and the distributed solver
// has no FMG, so eul3d refuses each pairing before it loads or builds
// anything. main runs in a re-exec'd copy of the test binary, as log.Fatalf
// exits.
func TestFMGRejectsAReplacedStart(t *testing.T) {
	if args := os.Getenv("EUL3D_TEST_MAIN_ARGS"); args != "" {
		os.Args = append(os.Args[:1], strings.Fields(args)...)
		main()
		os.Exit(0) // main should have exited already
	}

	for _, tc := range []struct{ args, flag string }{
		{"-fmg 20 -init-solution missing.sol", "-init-solution"},
		{"-fmg 20 -resume missing.ckpt", "-resume"},
		{"-fmg 20 -nproc 4", "-nproc"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=TestFMGRejectsAReplacedStart")
		cmd.Env = append(os.Environ(), "EUL3D_TEST_MAIN_ARGS="+tc.args)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() == 0 {
			t.Fatalf("eul3d %s: err %v, want a nonzero exit\n%s", tc.args, err, out)
		}
		if want := "-fmg builds the initial solution and is incompatible with " + tc.flag; !strings.Contains(string(out), want) {
			t.Errorf("eul3d %s: output missing %q:\n%s", tc.args, want, out)
		}
	}
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
