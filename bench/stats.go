package main

import (
	"fmt"
	"math"
	"sort"

	"parblast/internal/metrics"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100): the
// ceil(p·n/100)-th smallest sample. It refuses a percentile above the
// median with fewer than ten samples beyond it — such a tail is too thin
// to report (n = 40 → p75 is the highest allowed).
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	rank := nearestRank(n, p)
	if p > 50 && n-rank < 10 {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it, need 10", p, n, n-rank)
	}
	return quantile(samples, p), nil
}

// quantile is percentile without the thin-tail rule, for deterministic
// samples (virtual-time values), where no sample-count rule applies. It is
// the program's own nearest-rank quantile.
func quantile(samples []float64, p float64) float64 {
	return metrics.ExactQuantile(samples, p/100)
}

// nearestRank is the 1-based rank ExactQuantile picks, needed here only to
// count the samples beyond it.
func nearestRank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)/100-1e-9)), 1), n)
}

// median is the midpoint median (mean of the two central samples when n
// is even), used for every "typical value" over a handful of samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := sorted(samples)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// spreadRatio is p90/p10 of the samples, the disturbance measure of a
// pass's calibration times.
func spreadRatio(samples []float64) float64 {
	if len(samples) == 0 {
		return 1
	}
	lo := quantile(samples, 10)
	if lo <= 0 {
		return math.Inf(1)
	}
	return quantile(samples, 90) / lo
}
