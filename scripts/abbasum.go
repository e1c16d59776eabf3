//go:build ignore

// abbasum summarises an ABBA series of benchmark runs (scripts/abba.sh):
//
//	go run scripts/abbasum.go BENCHMARK.json DIR PAIRS [LAYOUTS]
//
// DIR holds the result line of every run, a<i>.json for the base and
// b<i>.json for the change, i = 1..PAIRS, and with LAYOUTS 2 also
// pa<i>.json and pb<i>.json, the same two trees built with a layout pad.
// For every metric the runs report it prints the base and change medians,
// the base's interquartile range, the change's relative move, and how many
// of the pairs the change won by the metric's own direction. For the
// end-to-end metrics it also prints whether the change's median stays
// inside the manifest's bound — the share of the base median by which a
// change may be worse. With two layouts it prints that table at each
// parity and then the base against the padded base: what layout alone
// moves, with no change to the code. Runs with failed operations are
// listed; the exit status is 1 if a metric is outside its bound at either
// parity, a run was incorrect, or the change's runs fail a larger share of
// their operations than the base's.
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
	if len(os.Args) != 4 && len(os.Args) != 5 {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/abbasum.go BENCHMARK.json DIR PAIRS [LAYOUTS]")
		os.Exit(2)
	}
	var man manifest
	readJSON(os.Args[1], &man)
	pairs, err := strconv.Atoi(os.Args[3])
	if err != nil || pairs < 1 {
		fail("PAIRS %q is not a positive count", os.Args[3])
	}
	layouts := 1
	if len(os.Args) == 5 {
		if layouts, err = strconv.Atoi(os.Args[4]); err != nil || layouts < 1 || layouts > 2 {
			fail("LAYOUTS %q is not 1 or 2", os.Args[4])
		}
	}
	dir := os.Args[2]
	if layouts == 1 {
		a, b := load(dir, "a", pairs), load(dir, "b", pairs)
		if !compare(man, "a", "b", a, b, true) {
			os.Exit(1)
		}
		return
	}
	a, b := load(dir, "a", pairs), load(dir, "b", pairs)
	pa, pb := load(dir, "pa", pairs), load(dir, "pb", pairs)
	fmt.Println("== layout as built: A -> B")
	ok := compare(man, "a", "b", a, b, true)
	fmt.Println("\n== layout padded: A' -> B'")
	ok = compare(man, "pa", "pb", pa, pb, true) && ok
	fmt.Println("\n== layout only: A -> A' (no bound applies)")
	compare(man, "a", "pa", a, pa, false)
	if !ok {
		os.Exit(1)
	}
}

// load reads the result lines <tag><i>.json, i = 1..pairs, from dir.
func load(dir, tag string, pairs int) []result {
	rs := make([]result, pairs)
	for i := range rs {
		readJSON(filepath.Join(dir, fmt.Sprintf("%s%d.json", tag, i+1)), &rs[i])
	}
	return rs
}

// compare prints one table, the runs a against b pair by pair, and reports
// whether b held: every run correct, no larger share of failed operations
// than a's, and with bounds set every end-to-end median inside its bound.
func compare(man manifest, tagA, tagB string, a, b []result, bounds bool) bool {
	ok := true
	var failed, attempted [2]int // a, b
	for i := range a {
		for side, r := range []struct {
			tag string
			res result
		}{{tagA, a[i]}, {tagB, b[i]}} {
			failed[side] += r.res.Failed
			attempted[side] += r.res.Attempted
			if !r.res.Correct || r.res.Failed > 0 {
				fmt.Printf("run %s%d: correct=%v, %d of %d operations failed\n", r.tag, i+1, r.res.Correct, r.res.Failed, r.res.Attempted)
				ok = ok && r.res.Correct
			}
		}
	}
	if share(failed[1], attempted[1]) > share(failed[0], attempted[0]) {
		fmt.Printf("failed operations: %s %d of %d, %s %d of %d: %s fails a larger share\n", tagA, failed[0], attempted[0], tagB, failed[1], attempted[1], tagB)
		ok = false
	}

	fmt.Printf("%-34s %-8s %12s %12s %10s %8s %6s  %s\n", "metric", "unit", tagA+" median", tagB+" median", tagA+" iqr", "move", "won", "bound")
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
			if li == 0 && bounds { // end to end
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
			fmt.Printf("%-34s %-8s %12.4g %12.4g %10.3g %+7.1f%% %3d/%-2d  %s\n", m.Name, m.Unit, ma, mb, iqr(av), 100*move, won, n, verdict)
		}
	}
	return ok
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

// iqr returns the distance between the quartiles of v (the medians of its
// lower and upper halves).
func iqr(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	h := len(s) / 2
	if h == 0 {
		return 0
	}
	return median(s[len(s)-h:]) - median(s[:h])
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
