package simtime

import (
	"strings"
	"testing"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatal("new clock not at zero")
	}
	c.SetPhase(PhaseSearch)
	c.Advance(2.5)
	c.SetPhase(PhaseOutput)
	c.Advance(1.5)
	if c.Now() != 4.0 {
		t.Fatalf("now = %g", c.Now())
	}
	if c.Bucket(PhaseSearch) != 2.5 || c.Bucket(PhaseOutput) != 1.5 {
		t.Fatalf("buckets wrong: %v", c.Buckets())
	}
	// Buckets lists exactly the phases advanced in — the key set of each
	// rank's report JSON: one entered by a zero advance is listed, one set
	// but never advanced in and one never entered are not.
	c.SetPhase(PhaseIdle)
	c.Advance(0)
	c.SetPhase(PhaseCopy)
	got := c.Buckets()
	want := map[string]float64{"search": 2.5, "output": 1.5, "idle": 0}
	if len(got) != len(want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	for k, v := range want {
		if b, ok := got[k]; !ok || b != v {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
	if PhaseIdle.String() != "idle" || c.Phase() != PhaseCopy {
		t.Fatalf("phase %v, idle named %q", c.Phase(), PhaseIdle.String())
	}
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClock()
	c.SetPhase(PhaseOutput)
	c.AdvanceTo(3)
	c.AdvanceTo(1) // in the past: no-op
	if c.Now() != 3 {
		t.Fatalf("now = %g", c.Now())
	}
	if c.Bucket(PhaseOutput) != 3 {
		t.Fatal("waiting not charged to current phase")
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance did not panic")
		}
	}()
	NewClock().Advance(-1)
}

func TestBreakdown(t *testing.T) {
	b := Breakdown{Copy: 1, Search: 10, Output: 4, Total: 15}
	if !strings.Contains(b.String(), "search=10.0") {
		t.Fatalf("breakdown string: %s", b)
	}
}

func TestCostModel(t *testing.T) {
	m := DefaultCostModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := m
	bad.NetBandwidth = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
}

func TestOverlapSplit(t *testing.T) {
	cases := []struct {
		start, end, now float64
		hidden, exposed float64
	}{
		{0, 10, 0, 0, 10},  // waited immediately: fully exposed
		{0, 10, 4, 4, 6},   // partial overlap
		{0, 10, 10, 10, 0}, // finished exactly at the wait
		{0, 10, 25, 10, 0}, // finished long before the wait: fully hidden
		{5, 5, 7, 0, 0},    // zero-length operation
		{9, 5, 9, 0, 0},    // degenerate interval
	}
	for _, c := range cases {
		h, e := OverlapSplit(c.start, c.end, c.now)
		if h != c.hidden || e != c.exposed {
			t.Fatalf("OverlapSplit(%g,%g,%g) = (%g,%g), want (%g,%g)",
				c.start, c.end, c.now, h, e, c.hidden, c.exposed)
		}
		if c.end > c.start && h+e != c.end-c.start {
			t.Fatalf("hidden+exposed = %g, want full duration %g", h+e, c.end-c.start)
		}
	}
}

// Phase returns the currently charged phase.
func (c *Clock) Phase() Phase { return c.phase }
