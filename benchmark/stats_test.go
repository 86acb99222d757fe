package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {99, 100}, {100, 100}, {1, 10}, {10, 10}, {11, 20},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	in := []float64{5, 1, 4}
	if got := median(in); got != 4 {
		t.Errorf("median(odd) = %v, want 4", got)
	}
	if in[0] != 5 {
		t.Errorf("median sorted its argument in place: %v", in)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(even) = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

// The expected values are what Python's statistics.quantiles(vs, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 3, 1, 4, 2}, 1.5, 4.5},
		{[]float64{2, 8}, 0.5, 9.5},
		{[]float64{10, 20, 30, 40, 50, 60}, 17.5, 52.5},
	} {
		q1, q3 := quartiles(c.vs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
}

// The headline value of a timing is the median of the per-epoch medians: one
// disturbed epoch must not move it, and the drain slot must not count.
func TestEpochSamplesMedianOfEpochMedians(t *testing.T) {
	var s epochSamples
	for epoch, vs := range [][]float64{{1, 2, 3}, {2, 3, 4}, {100, 200, 300}, {3, 4, 5}, {4, 5, 6}} {
		for _, v := range vs {
			s.add(epoch, v)
		}
	}
	s.add(epochs, 1e9) // drain
	if got, want := s.perEpoch(), []float64{2, 3, 200, 4, 5}; !equal(got, want) {
		t.Errorf("perEpoch = %v, want %v", got, want)
	}
	if got := s.p50(); got != 4 {
		t.Errorf("p50 = %v, want 4 (the median of the epoch medians)", got)
	}
	if got := len(s.sorted()); got != 16 {
		t.Errorf("sorted holds %d samples, want all 16", got)
	}
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
