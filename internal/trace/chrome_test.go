package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"parblast/internal/metrics"
)

// goldenCollector builds a small fixed timeline: two ranks, abutting spans,
// one fault event.
func goldenCollector() *Collector {
	c := NewCollector()
	c.Record(0, "search", 0, 0.5)
	c.Record(0, "output", 0.5, 0.75)
	c.Record(1, "search", 0, 0.6)
	c.RecordEventAttrs(1, "crash", 0.6, map[string]string{"kind": "crash"})
	return c
}

// TestChromeTraceGolden pins the exporter's exact serialization: field
// order, rank/span ordering, microsecond timestamps, metadata records. Any
// byte-level drift (which would churn committed trace artifacts) fails.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	err := goldenCollector().WriteChromeTrace(&buf, map[string]string{"engine": "pio", "procs": "2"})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{
 "traceEvents": [
  {
   "name": "process_name",
   "ph": "M",
   "ts": 0,
   "pid": 0,
   "tid": 0,
   "args": {
    "name": "parblast simulated cluster"
   }
  },
  {
   "name": "thread_name",
   "ph": "M",
   "ts": 0,
   "pid": 0,
   "tid": 0,
   "args": {
    "name": "rank 0 (master)"
   }
  },
  {
   "name": "thread_name",
   "ph": "M",
   "ts": 0,
   "pid": 0,
   "tid": 1,
   "args": {
    "name": "rank 1"
   }
  },
  {
   "name": "search",
   "ph": "X",
   "ts": 0,
   "dur": 500000,
   "pid": 0,
   "tid": 0
  },
  {
   "name": "output",
   "ph": "X",
   "ts": 500000,
   "dur": 250000,
   "pid": 0,
   "tid": 0
  },
  {
   "name": "search",
   "ph": "X",
   "ts": 0,
   "dur": 600000,
   "pid": 0,
   "tid": 1
  },
  {
   "name": "crash",
   "ph": "i",
   "ts": 600000,
   "pid": 0,
   "tid": 1,
   "s": "t",
   "args": {
    "kind": "crash"
   }
  }
 ],
 "displayTimeUnit": "ms",
 "otherData": {
  "engine": "pio",
  "procs": "2"
 }
}
`
	if got := buf.String(); got != want {
		t.Fatalf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestChromeTraceDeterministic: two identical histories export to identical
// bytes, and the document parses back as valid JSON with the expected
// top-level shape.
func TestChromeTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := goldenCollector().WriteChromeTrace(&a, nil); err != nil {
		t.Fatal(err)
	}
	if err := goldenCollector().WriteChromeTrace(&b, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("exports differ:\n%s\n%s", a.String(), b.String())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
}

// TestConcurrentRecordAndSnapshot is the telemetry -race gate: rank
// goroutines record spans and events into the collector and bump metrics
// while the main goroutine snapshots the registry and exports the trace
// mid-run. Run with -race (scripts/check.sh does).
func TestConcurrentRecordAndSnapshot(t *testing.T) {
	c := NewCollector()
	reg := metrics.NewRegistry()
	const ranks, iters = 8, 200
	var wg sync.WaitGroup
	for rk := 0; rk < ranks; rk++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				from := float64(i)
				c.Record(rank, "search", from, from+0.5)
				c.Record(rank, "output", from+0.5, from+1)
				if i%50 == 0 {
					c.RecordEventAttrs(rank, "mark", from, nil)
				}
				reg.Counter("mpi.send.tag01.msgs", rank).Inc()
				reg.Histogram("mpi.msg_bytes", rank, metrics.SizeBuckets()).Observe(float64(i))
			}
		}(rk)
	}
	// Mid-run observers: snapshots and exports race against the recorders.
	for i := 0; i < 10; i++ {
		_ = reg.Snapshot()
		var sink bytes.Buffer
		if err := c.WriteChromeTrace(&sink, nil); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := reg.Snapshot().CounterTotal("mpi.send.tag01.msgs"); got != ranks*iters {
		t.Fatalf("counter total = %d, want %d", got, ranks*iters)
	}
	if len(c.Ranks()) != ranks {
		t.Fatalf("ranks traced = %d, want %d", len(c.Ranks()), ranks)
	}
}
