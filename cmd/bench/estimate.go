package main

import (
	"math"
	"sort"
)

// series holds repeated measurements of one quantity: each raw wall time
// with the mean of the two reference samples taken around it.
type series struct {
	raw []float64
	ref []float64
}

func (s *series) add(raw, ref float64) {
	s.raw = append(s.raw, raw)
	s.ref = append(s.ref, ref)
}

// trim is the share of measurements dropped at each end, ranked by their
// ratio to their references, before ratio sums the rest: a cycle that caught
// a garbage collection or a descheduled vCPU is not the program.
const trim = 0.10

// quiet estimates the quantity at reference-host speed, for a series whose
// references are samples of the reference kernel: the ratio to them times
// what a sample takes on the reference host.
func (s *series) quiet() float64 { return s.ratio() * refNominal }

// ratio is the time spent in the measurements over the time spent in the
// references around them. Summing before dividing matters: a reference is a
// few milliseconds and reads the host's speed with more scatter than the
// host has, so the ratio of one measurement to its own references is noisy
// where the ratio of the window's totals is not.
func (s *series) ratio() float64 {
	n := len(s.raw)
	if n == 0 {
		return math.NaN()
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return s.raw[order[a]]*s.ref[order[b]] < s.raw[order[b]]*s.ref[order[a]]
	})
	k := int(trim * float64(n))
	var raw, ref float64
	for _, i := range order[k : n-k] {
		raw += s.raw[i]
		ref += s.ref[i]
	}
	return raw / ref
}

// floor is the fastest raw measurement: on a host that is quiet at least
// once in the window it is the undisturbed time; on the recording host it
// misses by up to 30 % when the window holds no quiet moment, so it is
// reported only for the reference kernel itself, to show how disturbed the
// host was.
func floor(x []float64) float64 { return quantile(x, 0) }

func median(x []float64) float64 { return quantile(x, 0.5) }

// quantile returns the q-quantile of x by linear interpolation between
// order statistics (NaN for an empty x).
func quantile(x []float64, q float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	y := append([]float64(nil), x...)
	sort.Float64s(y)
	pos := q * float64(len(y)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return y[lo] + (pos-float64(lo))*(y[hi]-y[lo])
}

// cyclesToTol returns how many cycles the residual history needs to fall to
// tol times its first value, interpolating log-linearly inside the cycle
// that crosses so that the count moves smoothly with the inputs. ok is
// false when the history never gets there; the history length is returned.
func cyclesToTol(hist []float64, tol float64) (cycles float64, ok bool) {
	if len(hist) == 0 {
		return 0, false
	}
	target := tol * hist[0]
	for c := 1; c < len(hist); c++ {
		if hist[c] <= target {
			a, b := math.Log(hist[c-1]), math.Log(hist[c])
			return float64(c-1) + (math.Log(target)-a)/(b-a), true
		}
	}
	return float64(len(hist)), false
}
