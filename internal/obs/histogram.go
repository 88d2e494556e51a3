package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets are the standard duration bucket upper bounds,
// in seconds: a 1–2.5–5 progression from 100 ns to 2.5 s. The low end
// resolves an in-process lookup (a few hundred ns); the high end covers a
// slow HTTP round trip. Everything above the last bound lands in the
// implicit +Inf bucket.
var DefaultLatencyBuckets = []float64{
	100e-9, 250e-9, 500e-9,
	1e-6, 2.5e-6, 5e-6,
	10e-6, 25e-6, 50e-6,
	100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3,
	10e-3, 25e-3, 50e-3,
	100e-3, 250e-3, 500e-3,
	1, 2.5,
}

// Histogram is a fixed-bucket duration histogram, read only through
// the Prometheus exposition (_bucket, _sum, _count); quantiles are
// estimated from that exposition by its readers. Observe is lock-free
// and allocation-free: one linear scan over the (small, immutable)
// bound slice, then two atomic adds — bucket and sum; the count is
// derived at read time. Bucket counts are per-bucket (not cumulative);
// readers accumulate, which keeps Observe to a single contended cell
// per call.
type Histogram struct {
	bounds   []float64       // sorted upper bounds, seconds; +Inf implicit
	counts   []atomic.Uint64 // len(bounds)+1, last is the +Inf bucket
	sumNanos atomic.Int64
}

// NewHistogram creates a histogram over the given bucket upper bounds
// (seconds, strictly ascending). nil or empty bounds select
// DefaultLatencyBuckets. The bounds slice is copied.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be ascending")
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	return h
}

// Observe records one duration. Nil-safe: a nil *Histogram is a no-op.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	s := d.Seconds()
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNanos.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sumNanos.Load())
}
