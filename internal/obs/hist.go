package obs

import (
	"math"
	"sync/atomic"
	"time"
)

func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// addFloat atomically adds delta to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, floatBits(floatFromBits(old)+delta)) {
			return
		}
	}
}

// DurationBuckets are the default latency bounds in seconds: 1µs to 10s,
// roughly ×2 per step. They cover everything from an in-memory plan-cache
// hit to a stalled quorum wait.
var DurationBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10,
}

// SizeBuckets are bounds for small count distributions (group-commit batch
// sizes, pop batch sizes): powers of two up to 256.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Histogram is a fixed-bucket histogram safe for concurrent Observe. Each
// observation is a binary search over the (small, immutable) bounds slice,
// one atomic bucket increment, and one atomic sum update.
type Histogram struct {
	bounds  []float64       // upper bounds, sorted ascending
	counts  []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sumBits atomic.Uint64   // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be sorted ascending")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	addFloat(&h.sumBits, v)
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0).Seconds())
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Bounds []float64 // upper bounds (exclusive of the +Inf bucket)
	Counts []uint64  // len(Bounds)+1, per-bucket (not cumulative)
	Count  uint64    // total observations
	Sum    float64
}

// Snapshot copies the histogram state. Buckets are read individually, so a
// snapshot taken during concurrent observation may be off by in-flight
// increments — fine for monitoring.
func (h *Histogram) Snapshot() *HistSnapshot {
	s := &HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = floatFromBits(h.sumBits.Load())
	return s
}

// Quantile estimates the p-quantile (0 < p < 1) by linear interpolation
// within the bucket containing the target rank. Values in the +Inf bucket
// report the largest finite bound.
func (s *HistSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := p * float64(s.Count)
	cum := 0.0
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			// +Inf bucket: the best finite estimate is the largest bound.
			if len(s.Bounds) == 0 {
				return 0
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		upper := s.Bounds[i]
		return lower + (upper-lower)*((rank-prev)/float64(c))
	}
	if len(s.Bounds) == 0 {
		return 0
	}
	return s.Bounds[len(s.Bounds)-1]
}
