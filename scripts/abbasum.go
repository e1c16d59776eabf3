//go:build ignore

// abbasum summarises an ABBA series of benchmark runs (scripts/abba.sh):
//
//	go run scripts/abbasum.go BENCHMARK.json DIR PAIRS
//
// DIR holds the result line of every run, a<i>.json for the base and
// b<i>.json for the change, i = 1..PAIRS. For every metric the runs report
// it prints the base and change medians, the change's relative move, and
// how many of the pairs the change won by the metric's own direction. For
// the end-to-end metrics it also prints whether the change's median stays
// inside the manifest's bound — the share of the base median by which a
// change may be worse. Runs with failed operations are listed; the exit
// status is 1 if a metric is outside its bound, a run was incorrect, or
// the change's runs fail a larger share of their operations than the
// base's.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifest struct {
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	if len(os.Args) != 4 {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/abbasum.go BENCHMARK.json DIR PAIRS")
		os.Exit(2)
	}
	var man manifest
	readJSON(os.Args[1], &man)
	pairs, err := strconv.Atoi(os.Args[3])
	if err != nil || pairs < 1 {
		fail("PAIRS %q is not a positive count", os.Args[3])
	}
	a, b := make([]result, pairs), make([]result, pairs)
	ok := true
	var failed, attempted [2]int // base, change
	for i := range pairs {
		readJSON(filepath.Join(os.Args[2], fmt.Sprintf("a%d.json", i+1)), &a[i])
		readJSON(filepath.Join(os.Args[2], fmt.Sprintf("b%d.json", i+1)), &b[i])
		for side, r := range []struct {
			tag string
			res result
		}{{"a", a[i]}, {"b", b[i]}} {
			failed[side] += r.res.Failed
			attempted[side] += r.res.Attempted
			if !r.res.Correct || r.res.Failed > 0 {
				fmt.Printf("run %s%d: correct=%v, %d of %d operations failed\n", r.tag, i+1, r.res.Correct, r.res.Failed, r.res.Attempted)
				ok = ok && r.res.Correct
			}
		}
	}
	if share(failed[1], attempted[1]) > share(failed[0], attempted[0]) {
		fmt.Printf("failed operations: A %d of %d, B %d of %d: the change fails a larger share\n", failed[0], attempted[0], failed[1], attempted[1])
		ok = false
	}

	fmt.Printf("%-34s %-8s %12s %12s %8s %6s  %s\n", "metric", "unit", "A median", "B median", "move", "won", "bound")
	for li, list := range [][]metric{man.EndToEnd, man.PerLayer} {
		for _, m := range list {
			av, bv, won, n := values(m, a, b)
			if n == 0 {
				continue
			}
			ma, mb := median(av), median(bv)
			move := 0.0
			if ma != 0 {
				move = (mb - ma) / ma
			}
			verdict := ""
			if li == 0 { // end to end
				worse := move
				if m.Better == "higher" {
					worse = -move
				}
				verdict = fmt.Sprintf("%.0f %% inside", 100*m.Bound)
				if worse > m.Bound {
					verdict = fmt.Sprintf("%.0f %% OUTSIDE", 100*m.Bound)
					ok = false
				}
			}
			fmt.Printf("%-34s %-8s %12.4g %12.4g %+7.1f%% %3d/%-2d  %s\n", m.Name, m.Unit, ma, mb, 100*move, won, n, verdict)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// values collects a metric's base and change values and counts the pairs,
// among those where both runs report it, in which the change did better.
func values(m metric, a, b []result) (av, bv []float64, won, n int) {
	for i := range a {
		x, okA := a[i].Metrics[m.Name]
		y, okB := b[i].Metrics[m.Name]
		if !okA || !okB {
			continue
		}
		av, bv, n = append(av, x.Value), append(bv, y.Value), n+1
		if (m.Better == "higher" && y.Value > x.Value) || (m.Better != "higher" && y.Value < x.Value) {
			won++
		}
	}
	return av, bv, won, n
}

func share(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func readJSON(path string, v any) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		fail("%s: %v", path, err)
	}
}

func fail(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "abbasum: "+format+"\n", a...)
	os.Exit(2)
}
