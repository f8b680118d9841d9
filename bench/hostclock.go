package main

import "time"

// The simulator's packages may never read the host clock (the wallclock
// analyzer enforces it); the benchmark is the one place that must. Every
// host-time number in this package comes through now(), so the clock
// source is one line.

var clockBase = time.Now()

// now returns monotonic host seconds since the process started.
func now() float64 { return time.Since(clockBase).Seconds() }
