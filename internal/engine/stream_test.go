package engine

import (
	"reflect"
	"testing"
)

// TestAdmissionFIFO: with no cap, batches dispatch in arrival order; an
// idle server waits for the next arrival and its dispatch time is the
// arrival itself.
func TestAdmissionFIFO(t *testing.T) {
	a := NewAdmission([]float64{1, 2, 10}, 0)
	b, at, ok := a.Next(0)
	if !ok || b != 0 || at != 1 {
		t.Fatalf("first dispatch = (%d, %g, %v), want (0, 1, true)", b, at, ok)
	}
	// Server busy until t=5: both remaining arrivals ≤ 5? No — batch 1
	// arrived at 2 (waiting), batch 2 arrives at 10.
	b, at, ok = a.Next(5)
	if !ok || b != 1 || at != 2 {
		t.Fatalf("second dispatch = (%d, %g, %v), want (1, 2, true)", b, at, ok)
	}
	if len(a.queue) != 0 {
		t.Fatalf("queue depth = %d, want 0", len(a.queue))
	}
	b, at, ok = a.Next(6)
	if !ok || b != 2 || at != 10 {
		t.Fatalf("third dispatch = (%d, %g, %v), want (2, 10, true)", b, at, ok)
	}
	if _, _, ok := a.Next(100); ok {
		t.Fatal("exhausted stream still dispatching")
	}
	if len(a.ShedSeqs()) != 0 {
		t.Fatalf("unbounded queue shed %v", a.ShedSeqs())
	}
}

// TestAdmissionShedding: with capacity 1, a burst landing while one batch
// waits is dropped newest-first, and the shed set is exactly reproducible.
func TestAdmissionShedding(t *testing.T) {
	// Arrivals: 0, 1, 1.1, 1.2, 9. Server takes until t=8 on batch 0.
	a := NewAdmission([]float64{0, 1, 1.1, 1.2, 9}, 1)
	b, _, ok := a.Next(0)
	if !ok || b != 0 {
		t.Fatalf("first dispatch = %d", b)
	}
	// At t=8: batch 1 queued at t=1; batches 2 and 3 arrived while the
	// queue held batch 1 → shed.
	b, at, ok := a.Next(8)
	if !ok || b != 1 || at != 1 {
		t.Fatalf("second dispatch = (%d, %g), want (1, 1)", b, at)
	}
	if got := a.ShedSeqs(); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Fatalf("shed = %v, want [2 3]", got)
	}
	// Batch 4 arrives later into an empty queue: dispatched, not shed.
	b, at, ok = a.Next(8.5)
	if !ok || b != 4 || at != 9 {
		t.Fatalf("third dispatch = (%d, %g), want (4, 9)", b, at)
	}
	if _, _, ok := a.Next(20); ok {
		t.Fatal("exhausted stream still dispatching")
	}
	if got := a.ShedSeqs(); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Fatalf("final shed = %v, want [2 3]", got)
	}
}

// TestAdmissionDeterministic: replaying the same dispatch-time sequence
// yields the same dispatch and shed sequences.
func TestAdmissionDeterministic(t *testing.T) {
	arrivals := []float64{0, 0.5, 0.6, 0.7, 2, 2.1, 5}
	dispatchAt := []float64{0, 1.5, 1.8, 3, 4, 6, 7}
	run := func() ([]int, []int) {
		a := NewAdmission(arrivals, 2)
		var order []int
		for _, now := range dispatchAt {
			b, _, ok := a.Next(now)
			if !ok {
				break
			}
			order = append(order, b)
		}
		return order, a.ShedSeqs()
	}
	o1, s1 := run()
	o2, s2 := run()
	if !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(s1, s2) {
		t.Fatalf("replay diverged: %v/%v vs %v/%v", o1, s1, o2, s2)
	}
	if len(o1)+len(s1) != len(arrivals) {
		t.Fatalf("dispatched %d + shed %d ≠ %d arrivals", len(o1), len(s1), len(arrivals))
	}
}

func TestServeStatsRecord(t *testing.T) {
	var s ServeStats
	s.Arrivals = 3
	s.RecordDispatch(0, 0.5, 0.5, 1.5, 4)
	s.RecordDispatch(2, 0.9, 1.5, 2.0, 1)
	s.Shed = 1
	s.ShedSeqs = []int{1}
	if s.Admitted != 2 || s.Arrivals != s.Admitted+s.Shed {
		t.Fatalf("accounting wrong: %+v", s)
	}
	if !reflect.DeepEqual(s.BatchSeq, []int{0, 2}) || s.BatchDone[1] != 2.0 || s.BatchQueries[0] != 4 {
		t.Fatalf("per-batch slices wrong: %+v", s)
	}
}
