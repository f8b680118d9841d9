package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestVerdictEdges(t *testing.T) {
	for _, c := range []struct {
		better    string
		old, new  float64
		disturbed bool
		want      string
	}{
		{"lower", 1, 1.1, false, verdictWithin}, // exactly at the bound
		{"lower", 1, 1.1001, false, verdictWorse},
		{"lower", 1, 0.9, false, verdictWithin},
		{"lower", 1, 0.8999, false, verdictBetter},
		{"lower", 1, 1, false, verdictWithin},
		{"higher", 100, 90, false, verdictWithin},
		{"higher", 100, 89.99, false, verdictWorse},
		{"higher", 100, 110.01, false, verdictBetter},
		{"lower", 1, 2, true, verdictDisturbed},
		{"lower", 0, 0, false, verdictWithin},
	} {
		if got, _ := verdict(c.better, 0.1, c.old, c.new, c.disturbed); got != c.want {
			t.Errorf("verdict(%s, 0.1, %g -> %g, disturbed=%v) = %q, want %q", c.better, c.old, c.new, c.disturbed, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	bound := 0.1
	sp := &spec{
		Workloads: []specWorkload{{Name: "a"}, {Name: "b"}},
		EndToEnd: []specMetric{
			{Name: "lat_s", Unit: "s", Better: "lower", Bound: &bound},
			{Name: "rate", Unit: "1/s", Better: "higher", Bound: &bound},
		},
		PerLayer: []specMetric{{Name: "l.count", Unit: "count", Better: "lower"}},
	}
	side := func(lat, rate float64, disturbed bool) *results {
		pr := func() *passResult {
			return &passResult{Disturbed: disturbed, Metrics: map[string]value{"lat_s": {lat, "s"}, "rate": {rate, "1/s"}}}
		}
		return &results{Workloads: map[string]*workloadResult{
			"a": {Measured: pr(), Traced: &passResult{Metrics: map[string]value{"l.count": {5, "count"}}}},
			"b": {Measured: pr()},
		}}
	}
	var out bytes.Buffer
	if bad := compare(&out, sp, side(1, 100, false), side(1.05, 120, false), true); bad != 0 {
		t.Errorf("no row is worse, got %d:\n%s", bad, out.String())
	}
	for _, want := range []string{verdictWithin, verdictBetter, "l.count"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if bad := compare(&out, sp, side(1, 100, false), side(1.2, 80, false), false); bad != 4 {
		t.Errorf("both metrics worse on both workloads, got %d:\n%s", bad, out.String())
	}
	out.Reset()
	// Only host-time metrics can be disturbed; "rate" here is still judged.
	hostTimed["lat_s"] = true
	defer delete(hostTimed, "lat_s")
	if bad := compare(&out, sp, side(1, 100, false), side(1.2, 80, true), false); bad != 2 || !strings.Contains(out.String(), verdictDisturbed) {
		t.Errorf("a disturbed host time is reported, not failed, and the rest judged; got %d:\n%s", bad, out.String())
	}
	missing := side(1, 100, false)
	delete(missing.Workloads, "b")
	out.Reset()
	if bad := compare(&out, sp, side(1, 100, false), missing, false); bad != 1 {
		t.Errorf("a missing workload is one bad row, got %d:\n%s", bad, out.String())
	}
}
