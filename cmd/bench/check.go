package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// checked is one child run of -check: its result line and its report.
type checked struct {
	out output
	rep report
}

// runChild runs one workload in a process of its own, as the driver does.
func runChild(cfg config, workload string) (*checked, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "0"}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w\n%s", workload, err, stderr.Bytes())
	}
	var c checked
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &c.out); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	if err := json.Unmarshal(stderr.Bytes(), &c.rep); err != nil {
		return nil, fmt.Errorf("%s: report: %w", workload, err)
	}
	return &c, nil
}

// runCheck is the A/A evidence: the suite twice on the same code, the
// second time in the opposite workload order, failing unless every
// end-to-end metric of every workload agrees within its own bound. The
// host-reference floors are printed next to each pair, so that a
// disagreement can be told from a host that changed between the passes.
func runCheck(cfg config) error {
	var first, second []*checked
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "pass 1: %s\n", w.Name)
		c, err := runChild(cfg, w.Name)
		if err != nil {
			return err
		}
		first = append(first, c)
	}
	second = make([]*checked, len(workloads))
	for i := len(workloads) - 1; i >= 0; i-- {
		fmt.Fprintf(os.Stderr, "pass 2: %s\n", workloads[i].Name)
		c, err := runChild(cfg, workloads[i].Name)
		if err != nil {
			return err
		}
		second[i] = c
	}

	bad := 0
	fmt.Printf("%-12s %-18s %12s %12s %8s %6s  %s\n", "workload", "metric", "pass 1", "pass 2", "diff", "bound", "")
	for i, w := range workloads {
		a, c := first[i], second[i]
		for _, d := range endToEnd {
			x, y := a.out.Metrics[d.Name].Value, c.out.Metrics[d.Name].Value
			diff := math.Abs(y-x) / math.Min(x, y)
			verdict := "ok"
			if !(diff <= d.Bound) {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Printf("%-12s %-18s %12.5g %12.5g %7.2f%% %5.0f%%  %s\n", w.Name, d.Name, x, y, 100*diff, 100*d.Bound, verdict)
		}
		fmt.Printf("%-12s %-18s %12.5g %12.5g  (raw floor of the reference kernel; p50 %.4g / %.4g)\n",
			w.Name, "bench.host_ref_ms", a.rep.HostRefMS, c.rep.HostRefMS, a.rep.HostRefP50MS, c.rep.HostRefP50MS)
		if a.out.Failed+c.out.Failed > 0 {
			fmt.Printf("%-12s failed operations: %d and %d\n", w.Name, a.out.Failed, c.out.Failed)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("-check: %d disagreements or failures", bad)
	}
	fmt.Println("-check: both passes agree within every bound")
	return nil
}
