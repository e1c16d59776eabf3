package main

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestAdaptSmoke is the end-to-end adaptive-solve smoke test behind
// `make adapt-smoke`: build the eul3d binary, run the Sod preset with
// adaptation on the pooled engine, and assert the epoch count, mesh
// conformity, and the scenario physics check from the program output.
func TestAdaptSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "eul3d")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building eul3d: %v\n%s", err, out)
	}

	run := exec.Command(bin, "-scenario", "sod", "-adapt",
		"-adapt-interval", "50", "-adapt-epochs", "2",
		"-workers", "2", "-log-every", "0")
	out, err := run.CombinedOutput()
	if err != nil {
		t.Fatalf("adaptive sod run: %v\n%s", err, out)
	}
	text := string(out)

	em := regexp.MustCompile(`adaptation: (\d+) epochs, (\d+) cells refined`).FindStringSubmatch(text)
	if em == nil {
		t.Fatalf("no adaptation summary in output:\n%s", text)
	}
	if n, _ := strconv.Atoi(em[1]); n < 2 {
		t.Fatalf("only %d adaptation epochs, want >= 2:\n%s", n, text)
	}
	if n, _ := strconv.Atoi(em[2]); n <= 0 {
		t.Fatalf("no cells refined:\n%s", text)
	}
	for _, want := range []string{
		"adaptive mesh conformity validated",
		"scenario check passed",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
	// Every per-epoch line carries what the in-place rebuild cost.
	if n := len(regexp.MustCompile(`(?m)^  epoch \d+ @ step .*, rebuild [0-9.]+ms`).FindAllString(text, -1)); n < 2 {
		t.Fatalf("%d epoch lines report a rebuild time, want >= 2:\n%s", n, text)
	}
}
