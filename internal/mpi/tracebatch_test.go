package mpi

import (
	"fmt"
	"testing"

	"parblast/internal/trace"
)

// TestTraceBatchMonotoneAdoption is the two-batch stale-sideband
// regression: in a stream, a batch-0 reply can be delivered to the master
// AFTER the master has already advanced its context to batch 1 (late
// straggler results, retransmissions). Adoption must be monotone — the
// late delivery keeps its own batch id on the flow EDGE, but must not
// rewind the receiver's context, or every subsequent send would be
// stamped with the stale batch and the flow graph's per-batch split
// would attribute batch-1 traffic to batch 0.
func TestTraceBatchMonotoneAdoption(t *testing.T) {
	col := trace.NewCollector()
	_, err := RunConfig(2, Config{Cost: testCost(), Trace: col}, func(r *Rank) error {
		if r.ID() == 0 {
			// Master: dispatch batch 0, then batch 1, then receive the
			// worker's batch-0 reply — which arrives after the context
			// already moved to batch 1.
			r.SetTraceBatch(0)
			r.Send(1, 5, []byte("batch0-work"))
			r.SetTraceBatch(1)
			r.Send(1, 6, []byte("batch1-work"))
			r.Recv(1, 7) // late batch-0-stamped reply
			if got := r.TraceBatch(); got != 1 {
				return fmt.Errorf("master context rewound to %d by late batch-0 delivery, want 1", got)
			}
			r.Send(1, 8, []byte("batch1-followup"))
			return nil
		}
		// Worker: adopt batch 0 from the first request, reply while still
		// in batch-0 context, then consume the batch-1 request.
		r.Recv(0, 5)
		if got := r.TraceBatch(); got != 0 {
			return fmt.Errorf("worker did not adopt batch 0: got %d", got)
		}
		r.Send(0, 7, []byte("batch0-results"))
		r.Recv(0, 6)
		if got := r.TraceBatch(); got != 1 {
			return fmt.Errorf("worker did not advance to batch 1: got %d", got)
		}
		r.Recv(0, 8)
		if got := r.TraceBatch(); got != 1 {
			return fmt.Errorf("worker context after follow-up = %d, want 1", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Per-batch split of the flow edges must be exact: each edge carries
	// the batch its ENVELOPE was stamped with at send time, so the late
	// reply stays in batch 0 while the follow-up lands in batch 1.
	wantBatch := map[string]int{"tag05": 0, "tag06": 1, "tag07": 0, "tag08": 1}
	seen := map[string]bool{}
	for _, f := range col.Flows() {
		want, ok := wantBatch[f.Op]
		if !ok {
			t.Fatalf("unexpected flow op %q", f.Op)
		}
		if f.Batch != want {
			t.Fatalf("flow %s batch = %d, want %d", f.Op, f.Batch, want)
		}
		seen[f.Op] = true
	}
	for op := range wantBatch {
		if !seen[op] {
			t.Fatalf("flow edge for %s not recorded", op)
		}
	}
}
