// Fixture for the clockneutral analyzer: the package is deliberately
// named metrics, which places it inside the clock-neutral set.
package metrics

import "parblast/internal/simtime"

func bad(c *simtime.Clock) {
	c.Advance(1)                  // want "simtime Advance advances a virtual clock"
	c.AdvanceTo(2)                // want "simtime AdvanceTo advances a virtual clock"
	c.SetPhase(simtime.PhaseIdle) // want "simtime SetPhase advances a virtual clock"
}

func good(c *simtime.Clock) float64 {
	_ = c.Phase()                     // read-only accessors are allowed:
	_ = c.Bucket(simtime.PhaseSearch) // exporters read clocks they must never drive
	return c.Now()
}

type Registry struct{ waits float64 }

// A helper that books a wait and advances the clock it is handed: the
// audited mutant of metrics charging mpi.Rank.IO. With metrics off (a nil
// registry) the clock would not move; runs show the timing change, only
// this check names the call.
func (r *Registry) ChargeIO(c *simtime.Clock, end float64) {
	if r == nil {
		return
	}
	r.waits += end - c.Now()
	c.AdvanceTo(end) // want "simtime AdvanceTo advances a virtual clock"
}
