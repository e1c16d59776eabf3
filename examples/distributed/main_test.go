package main

import (
	"os"
	"regexp"
	"strconv"
	"testing"
)

// TestDistributedExample runs the example and checks its two verdicts: the
// pooled executor and a worker per node agree bit for bit, and the
// distributed solution is the sequential engine's to roundoff.
func TestDistributedExample(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	main()
	os.Stdout = stdout

	raw, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	if !regexp.MustCompile(`bitwise identical = true\n`).MatchString(out) {
		t.Errorf("executors disagree:\n%s", out)
	}
	dev := regexp.MustCompile(`max \|distributed - sequential\| after \d+ cycles: (\S+)\n`).FindStringSubmatch(out)
	if dev == nil {
		t.Fatalf("no deviation line:\n%s", out)
	}
	if worst, err := strconv.ParseFloat(dev[1], 64); err != nil || !(worst < 1e-10) {
		t.Errorf("max deviation from the sequential engine %s, want below 1e-10 (%v)", dev[1], err)
	}
}
