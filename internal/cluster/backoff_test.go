package cluster

import (
	"testing"
	"time"
)

func TestBackoffGrowthAndCap(t *testing.T) {
	b := NewBackoff(100*time.Millisecond, time.Second)
	b.Jitter = 0 // exact schedule
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second, time.Second,
	}
	for attempt, w := range want {
		if got := b.Delay(attempt); got != w {
			t.Errorf("Delay(%d) = %v, want %v", attempt, got, w)
		}
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	b := NewBackoff(100*time.Millisecond, 5*time.Second)
	for attempt := 0; attempt < 4; attempt++ {
		nominal := 100 * time.Millisecond << attempt
		lo := time.Duration(float64(nominal) * (1 - b.Jitter))
		hi := time.Duration(float64(nominal) * (1 + b.Jitter))
		for i := 0; i < 200; i++ {
			if d := b.Delay(attempt); d < lo || d > hi {
				t.Fatalf("Delay(%d) = %v outside jitter band [%v, %v]", attempt, d, lo, hi)
			}
		}
	}
	// Jitter can never push a delay to zero.
	tiny := NewBackoff(time.Millisecond, time.Second)
	for i := 0; i < 100; i++ {
		if d := tiny.Delay(0); d < time.Millisecond {
			t.Fatalf("Delay floor violated: %v", d)
		}
	}
}

func TestBackoffSeedDeterminism(t *testing.T) {
	a, b := NewBackoff(0, 0), NewBackoff(0, 0)
	for i := 0; i < 20; i++ {
		if da, db := a.Delay(i), b.Delay(i); da != db {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", i, da, db)
		}
	}
}

func TestBackoffHonorsRetryAfter(t *testing.T) {
	b := NewBackoff(10*time.Millisecond, time.Second)
	b.Jitter = 0
	// A server hint longer than the schedule wins...
	if got := b.DelayAfter(0, 2*time.Second); got != 2*time.Second {
		t.Errorf("DelayAfter with long hint = %v, want 2s", got)
	}
	// ...a shorter (or absent) hint falls back to the schedule.
	if got := b.DelayAfter(3, 5*time.Millisecond); got != 80*time.Millisecond {
		t.Errorf("DelayAfter with short hint = %v, want 80ms", got)
	}
	if got := b.DelayAfter(0, 0); got != 10*time.Millisecond {
		t.Errorf("DelayAfter with no hint = %v, want 10ms", got)
	}
}
