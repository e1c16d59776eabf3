// Log-bucketed latency histograms. A Hist is a fixed array of atomic
// counters with exponentially growing bucket bounds, so Observe is
// lock-free and allocation-free, and WriteProm renders the cumulative
// _bucket / _sum / _count series the Prometheus text format requires.
package trace

import (
	"fmt"
	"io"
	"strconv"
	"sync/atomic"
	"time"
)

// NumBuckets is the finite bucket count; a +Inf bucket is implied.
const NumBuckets = 18

// histBase is the first bucket's upper bound: 100µs, doubling per bucket.
// The top finite bound is 100µs·2¹⁷ ≈ 13.1s, which comfortably covers
// queue waits and whole-job run times.
const histBase = 100 * time.Microsecond

var histBounds = func() [NumBuckets]time.Duration {
	var b [NumBuckets]time.Duration
	d := histBase
	for i := range b {
		b[i] = d
		d *= 2
	}
	return b
}()

// Hist is a log-bucketed duration histogram safe for concurrent use.
// The zero value is ready.
type Hist struct {
	buckets [NumBuckets + 1]atomic.Int64 // last slot is +Inf
	sumNS   atomic.Int64
	count   atomic.Int64
}

// Observe records one duration. Lock-free, zero-alloc.
func (h *Hist) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	i := 0
	for i < NumBuckets && d > histBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sumNS.Add(int64(d))
	h.count.Add(1)
}

// Count returns the total number of observations.
func (h *Hist) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed durations.
func (h *Hist) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sumNS.Load())
}

// Snapshot returns the per-bucket counts (last entry is +Inf).
func (h *Hist) Snapshot() [NumBuckets + 1]int64 {
	var out [NumBuckets + 1]int64
	if h == nil {
		return out
	}
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// PromHead writes the two comment lines that open a metric family in the
// Prometheus text format; kind is counter, gauge or histogram. Every
// /metrics page in the module opens its families through here.
func PromHead(w io.Writer, name, help, kind string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// WriteProm renders the histogram as a Prometheus text-format histogram
// metric: cumulative <name>_bucket{le="..."} series in seconds, then
// <name>_sum and <name>_count. help becomes the # HELP line.
func (h *Hist) WriteProm(w io.Writer, name, help string) {
	if h == nil {
		return
	}
	PromHead(w, name, help, "histogram")
	snap := h.Snapshot()
	cum := int64(0)
	for i, bound := range histBounds {
		cum += snap[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n",
			name, strconv.FormatFloat(bound.Seconds(), 'g', -1, 64), cum)
	}
	cum += snap[NumBuckets]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum().Seconds())
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
}
