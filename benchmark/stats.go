package main

import (
	"math"
	"sort"
)

// rank is the nearest-rank position (1-based) of the p-th percentile in a
// sample of n: the smallest rank with at least p percent of the sample at or
// below it. The epsilon keeps a product that is whole in exact arithmetic
// (90% of 100) from being pushed up a rank by its binary representation.
func rank(p float64, n int) int {
	return min(max(int(math.Ceil(p*float64(n)/100-1e-9)), 1), n)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted sample. Zero for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// reportedPercentiles are the tail percentiles a timing may be quoted at.
var reportedPercentiles = []float64{50, 90, 95, 99, 99.9}

// highestSupportedPercentile returns the largest reported percentile that
// still has at least ten samples beyond it — the tail a sample of size n can
// honestly speak for. Samples under twenty support nothing past the median.
func highestSupportedPercentile(n int) float64 {
	best := reportedPercentiles[0]
	for _, p := range reportedPercentiles {
		if n-rank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// median of an unsorted sample.
func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// ratio is a/b, zero when b is zero (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countAtMost counts the values of an ascending-sorted sample that do not
// exceed limit.
func countAtMost(sorted []float64, limit float64) int {
	return sort.Search(len(sorted), func(i int) bool { return sorted[i] > limit })
}

// setupStat reduces a run's set-up samples to setup_s: their lower
// quartile. Interference only ever adds to a start-up time, and on the
// shared reference VM it adds 40-50% for seconds at a time; the median of
// seventeen starts then flips between two values from run to run, while the
// lower quartile stays at the undisturbed cost as long as a quarter of the
// samples, taken 20 s apart, escaped.
func setupStat(samples []float64) float64 { return percentile(sortedCopy(samples), 25) }
