package trace_test

import (
	"testing"

	"parblast/internal/mpi"
	"parblast/internal/simtime"
	"parblast/internal/trace"
)

// An external test package: mpi imports trace, so a test that drives a
// real world cannot live inside package trace.
func TestTraceThroughMPIRun(t *testing.T) {
	c := trace.NewCollector()
	cfg := mpi.Config{Cost: simtime.DefaultCostModel(), Trace: c}
	_, err := mpi.RunConfig(2, cfg, func(r *mpi.Rank) error {
		r.SetPhase(simtime.PhaseSearch)
		r.Advance(0.5)
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Ranks()) != 2 {
		t.Fatalf("traced %d ranks", len(c.Ranks()))
	}
	for _, rank := range c.Ranks() {
		found := false
		for _, s := range c.Spans(rank) {
			if s.Phase == simtime.PhaseSearch && s.To-s.From >= 0.5 {
				found = true
			}
		}
		if !found {
			t.Fatalf("rank %d search span missing: %v", rank, c.Spans(rank))
		}
	}
	// Flows ride every trace: the barrier's contribution and release edges.
	if len(c.Flows()) == 0 {
		t.Fatal("traced barrier recorded no flow edges")
	}
}
