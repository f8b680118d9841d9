// Package render is a negative fixture for the clockneutral analyzer:
// packages outside the telemetry set may drive virtual clocks freely.
package render

import "parblast/internal/simtime"

func tick(c *simtime.Clock) {
	c.Advance(0.5)
	c.SetPhase(simtime.PhaseSearch)
}
