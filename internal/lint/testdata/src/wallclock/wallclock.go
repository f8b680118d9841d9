// Package wallclock is a fixture for the wallclock analyzer: virtual
// time must come from internal/simtime, never the host clock.
package wallclock

import (
	"time"

	"parblast/internal/simtime"
)

func bad() {
	_ = time.Now()                  // want "time.Now reads the wall clock"
	time.Sleep(time.Millisecond)    // want "time.Sleep waits on the wall clock"
	_ = time.Since(time.Unix(0, 0)) // want "time.Since reads the wall clock"
	_ = time.NewTicker(time.Second) // want "time.NewTicker ticks on the wall clock"
	_ = time.After(time.Second)     // want "time.After waits on the wall clock"
}

func good() float64 {
	c := simtime.NewClock()
	c.Advance(0.002)
	d := 3 * time.Millisecond // duration arithmetic is wall-clock-free
	_ = d
	_ = time.Unix(0, 0) // constructing times from data is fine
	return c.Now()
}

// A seed taken from the host clock when the caller gives none. Every test
// passes a seed, so no run shows the difference: only this check sees it
// (the audited mutant of workload.Arrivals).
func seedOr(seed int64) int64 {
	if seed == 0 {
		seed = time.Now().UnixNano() // want "time.Now reads the wall clock"
	}
	return seed
}
