package metrics

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	r.Counter("mpi.msgs", 0).Add(3)
	r.Counter("mpi.msgs", 0).Inc()
	r.Counter("mpi.msgs", 1).Inc()
	if got := r.Counter("mpi.msgs", 0).Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	g := r.Gauge("vfs.backoff_s", RankGlobal)
	g.Add(0.25)
	g.Add(0.25)
	if got := g.Value(); got != 0.5 {
		t.Fatalf("gauge = %g, want 0.5", got)
	}
	g.Set(2)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge after Set = %g, want 2", got)
	}
	h := r.Histogram("mpi.msg_bytes", 0, []float64{10, 100})
	h.Observe(5)
	h.Observe(10) // inclusive upper bound: lands in first bucket
	h.Observe(50)
	h.Observe(1e6) // overflow bucket
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(s.Histograms))
	}
	p := s.Histograms[0]
	if p.Total != 4 || p.Counts[0] != 2 || p.Counts[1] != 1 || p.Counts[2] != 1 {
		t.Fatalf("histogram point wrong: %+v", p)
	}
	if p.Sum != 5+10+50+1e6 {
		t.Fatalf("histogram sum = %g", p.Sum)
	}
}

// TestNilSafety: a nil registry hands out nil instruments whose methods are
// no-ops, so instrumentation sites never need an enabled check.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x", 0).Add(1)
	r.Counter("x", 0).Inc()
	r.Gauge("y", 0).Add(1)
	r.Gauge("y", 0).Set(1)
	r.Histogram("z", 0, []float64{1}).Observe(1)
	if v := r.Counter("x", 0).Value(); v != 0 {
		t.Fatalf("nil counter value = %d", v)
	}
	if v := r.Gauge("y", 0).Value(); v != 0 {
		t.Fatalf("nil gauge value = %g", v)
	}
	s := r.Snapshot()
	if s.Counters == nil || len(s.Counters) != 0 {
		t.Fatalf("nil registry snapshot: %+v", s)
	}
}

// TestSnapshotDeterministic: snapshots are ordered by (name, rank) and two
// identical histories marshal to identical bytes.
func TestSnapshotDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Deliberately insert out of order.
		r.Counter("z.last", 2).Add(7)
		r.Counter("a.first", 1).Add(1)
		r.Counter("a.first", 0).Add(2)
		r.Gauge("m.wait", 3).Add(1.5)
		r.Histogram("m.sizes", 0, []float64{8, 64}).Observe(9)
		return r
	}
	s1, s2 := build().Snapshot(), build().Snapshot()
	b1, err := json.Marshal(s1)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := json.Marshal(s2)
	if string(b1) != string(b2) {
		t.Fatalf("snapshots differ:\n%s\n%s", b1, b2)
	}
	if s1.Counters[0].Name != "a.first" || s1.Counters[0].Rank != 0 ||
		s1.Counters[1].Rank != 1 || s1.Counters[2].Name != "z.last" {
		t.Fatalf("counter order wrong: %+v", s1.Counters)
	}
	if s1.CounterTotal("a.first") != 3 {
		t.Fatalf("CounterTotal = %d", s1.CounterTotal("a.first"))
	}
	if !s1.HasPrefix("m.") || s1.HasPrefix("q.") {
		t.Fatal("HasPrefix wrong")
	}
}

// TestConcurrentUse hammers one registry from many goroutines (including
// mid-run snapshots); run under -race this is the telemetry thread-safety
// gate.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("mpi.msgs", rank).Inc()
				r.Gauge("mpi.wait", rank).Add(0.001)
				r.Histogram("mpi.bytes", rank, SizeBuckets()).Observe(float64(i))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.CounterTotal("mpi.msgs"); got != 8*500 {
		t.Fatalf("total = %d, want %d", got, 8*500)
	}
}
