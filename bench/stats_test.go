package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[n-1-i] = float64(i + 1) // descending, so sorting is exercised
	}
	return v
}

func TestPercentileRule(t *testing.T) {
	forty := ramp(40)
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 20}, {75, 30}, {10, 4}} {
		got, err := percentile(forty, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..40 = %g, %v; want %g", c.p, got, err, c.want)
		}
	}
	// Above the median a percentile needs ten samples beyond it.
	if _, err := percentile(forty, 76); err == nil {
		t.Error("p76 of 40 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(forty, 90); err == nil {
		t.Error("p90 of 40 samples must be refused")
	}
	if _, err := percentile(ramp(39), 75); err == nil {
		t.Error("p75 of 39 samples has 9 beyond it and must be refused")
	}
	if got, err := percentile(ramp(5), 50); err != nil || got != 3 {
		t.Errorf("the median is always allowed: got %g, %v", got, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of nothing must be refused")
	}
	// quantile is the same rank without the rule.
	if got := quantile(ramp(12), 90); got != 11 {
		t.Errorf("quantile p90 of 1..12 = %g, want 11", got)
	}
}

func TestMedianMeanSpread(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %g", got)
	}
	if got := spreadRatio(ramp(10)); got != 9 {
		t.Errorf("p90/p10 of 1..10 = %g, want 9", got)
	}
	if got := spreadRatio([]float64{0, 1}); !math.IsInf(got, 1) {
		t.Errorf("a zero p10 must give an infinite spread, got %g", got)
	}
}
