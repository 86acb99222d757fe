package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest value with at least p% of the samples at or
// below it. An empty slice gives 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of vs (the mean of the middle two for an
// even count) without disturbing the caller's slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of vs, 0 when empty.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// quartiles returns the first and third quartile of vs exactly as Python's
// statistics.quantiles(vs, n=4) (the default "exclusive" method) computes
// them, since that is what the acceptance check of BENCHMARK.json uses. It
// needs at least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// epochSamples holds the samples of one timing, filed by the epoch of the run
// they were taken in; the last slot takes samples from the drain after an
// epoch's deadline. The timing's headline value is the median of the
// per-epoch medians: every epoch replays the same trajectory from a fresh
// boot, so the epochs are repetitions of one experiment, and one slow
// stretch — a noisy neighbour on the sandbox — moves at most one of them.
type epochSamples [epochs + 1][]float64

func (s *epochSamples) add(slot int, v float64) { s[slot] = append(s[slot], v) }

// n is the number of samples held.
func (s *epochSamples) n() int {
	n := 0
	for _, e := range s {
		n += len(e)
	}
	return n
}

// sorted returns every sample, ascending.
func (s *epochSamples) sorted() []float64 {
	var all []float64
	for _, e := range s {
		all = append(all, e...)
	}
	sort.Float64s(all)
	return all
}

// perEpoch returns the median of each epoch that has samples.
func (s *epochSamples) perEpoch() []float64 {
	var meds []float64
	for _, e := range s[:epochs] {
		if len(e) > 0 {
			meds = append(meds, percentile(sortedCopy(e), 50))
		}
	}
	return meds
}

// p50 returns the median of the per-epoch medians.
func (s *epochSamples) p50() float64 { return median(s.perEpoch()) }

// sortedCopy returns vs sorted ascending in a new slice.
func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}
