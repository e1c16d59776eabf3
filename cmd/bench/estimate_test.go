package main

import (
	"math"
	"math/rand"
	"testing"
)

// disturbedHost synthesises measurements of a quantity whose undisturbed
// time is truth on a host that runs at full speed for quietShare of the time
// and 1.3 times slower otherwise, in phases of several measurements, the way
// the recording host does. A reference sample reads the host's speed with 8 %
// scatter (it is short), and now and then the host changes speed under a
// measurement.
func disturbedHost(rng *rand.Rand, n int, truth, quietShare float64) *series {
	var s series
	slow := true
	factor := func() float64 {
		if rng.Float64() < 0.15 { // a phase lasts about seven measurements
			slow = rng.Float64() >= quietShare
		}
		if slow {
			return 1.3
		}
		return 1.0
	}
	for i := 0; i < n; i++ {
		before := factor()
		after := before
		if rng.Float64() < 0.1 {
			after = factor()
		}
		speed := 0.5 * (before + after)
		raw := truth * speed * (1 + 0.01*rng.NormFloat64())
		if rng.Float64() < 0.03 { // a garbage collection or a descheduled vCPU
			raw *= 2
		}
		s.add(raw, refNominal*speed*(1+0.08*rng.NormFloat64()))
	}
	return &s
}

func TestQuietEstimatorOnDisturbedHost(t *testing.T) {
	const truth = 0.1
	rng := rand.New(rand.NewSource(7))
	s := disturbedHost(rng, 120, truth, 0.10)
	if got := s.quiet(); math.Abs(got-truth) > 0.02*truth {
		t.Errorf("quiet = %.4f, want within 2%% of %.4f", got, truth)
	}
	if got := floor(s.raw); math.Abs(got-truth) > 0.03*truth {
		t.Errorf("floor = %.4f with 10%% quiet samples, want within 3%% of %.4f", got, truth)
	}
	if got := median(s.raw); got < 1.15*truth {
		t.Errorf("whole-run median = %.4f, expected it to be off by more than 15%%", got)
	}

	// A window that never sees the host quiet: the floor is as wrong as the
	// median, the rescaled estimate is not. This is the case that made whole
	// 20 s windows read 30 % slow on the recording host.
	s = disturbedHost(rng, 120, truth, 0)
	if got := s.quiet(); math.Abs(got-truth) > 0.02*truth {
		t.Errorf("quiet on an all-slow host = %.4f, want within 2%% of %.4f", got, truth)
	}
	if got := floor(s.raw); got < 1.15*truth {
		t.Errorf("floor on an all-slow host = %.4f, expected it to be off by more than 15%%", got)
	}
}

func TestQuietTrimsOutliers(t *testing.T) {
	var s series
	for i := 0; i < 18; i++ {
		s.add(2*refNominal, refNominal)
	}
	s.add(40*refNominal, refNominal) // one measurement caught a pause
	s.add(0.1*refNominal, refNominal)
	if got, want := s.quiet(), 2*refNominal; math.Abs(got-want) > 1e-12 {
		t.Errorf("quiet = %v, want %v", got, want)
	}
	if !math.IsNaN((&series{}).quiet()) {
		t.Error("quiet of nothing should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	x := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(x, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
}

func TestCyclesToTol(t *testing.T) {
	// The residual halves every cycle: a quarter is reached after exactly two.
	hist := []float64{8, 4, 2, 1, 0.5}
	if c, ok := cyclesToTol(hist, 0.25); !ok || math.Abs(c-2) > 1e-12 {
		t.Errorf("cyclesToTol = %v, %v; want 2, true", c, ok)
	}
	// Between cycles the count interpolates on the logarithm.
	want := math.Log(0.3) / math.Log(0.5)
	if c, ok := cyclesToTol(hist, 0.3); !ok || math.Abs(c-want) > 1e-12 {
		t.Errorf("cyclesToTol = %v, %v; want %v, true", c, ok, want)
	}
	if c, ok := cyclesToTol(hist, 0.01); ok || c != float64(len(hist)) {
		t.Errorf("cyclesToTol = %v, %v; want %d, false", c, ok, len(hist))
	}
}
