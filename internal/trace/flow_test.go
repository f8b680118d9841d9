package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync"
	"testing"

	"parblast/internal/metrics"
)

// flowCollector extends the golden fixture with two rank timelines, a p2p
// delivery flow, a collective contribution flow, and one latency
// distribution — every new exporter feature in one document.
func flowCollector() (*Collector, *metrics.Registry) {
	c := NewCollector()
	c.Record(0, "search", 0, 0.5)
	c.Record(0, "output", 0.5, 0.75)
	c.Record(1, "idle", 0, 0.4)
	c.Record(1, "search", 0.4, 0.7)
	c.RecordFlow(Flow{Kind: FlowMsg, Op: "shuffle", ID: 3, Batch: 0, Src: 0, Dst: 1, Bytes: 128, SendAt: 0.25, RecvAt: 0.4})
	c.RecordFlow(Flow{Kind: FlowContrib, Op: "reduce", ID: 7, Batch: -1, Src: 1, Dst: 0, Bytes: 64, SendAt: 0.7, RecvAt: 0.75})
	reg := metrics.NewRegistry()
	d := reg.Distribution("engine.query_latency_s", 0, metrics.LatencyBuckets())
	d.Observe(0.05)
	d.Observe(0.7)
	return c, reg
}

// TestChromeTraceFlowGolden pins the flow-and-counter exporter byte for
// byte: "s"/"f" pairs share an id, the finish end binds to the enclosing
// slice (bp "e"), batch context rides in args only when set, and the
// distribution becomes a "C" counter track with one sample per bucket.
func TestChromeTraceFlowGolden(t *testing.T) {
	c, reg := flowCollector()
	var buf bytes.Buffer
	if err := c.WriteChromeTraceMetrics(&buf, map[string]string{"engine": "pio"}, reg.Snapshot()); err != nil {
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
   "name": "idle",
   "ph": "X",
   "ts": 0,
   "dur": 400000,
   "pid": 0,
   "tid": 1
  },
  {
   "name": "search",
   "ph": "X",
   "ts": 400000,
   "dur": 300000,
   "pid": 0,
   "tid": 1
  },
  {
   "name": "shuffle",
   "cat": "msg",
   "ph": "s",
   "ts": 250000,
   "pid": 0,
   "tid": 0,
   "id": "3",
   "args": {
    "batch": 0,
    "bytes": 128
   }
  },
  {
   "name": "shuffle",
   "cat": "msg",
   "ph": "f",
   "ts": 400000,
   "pid": 0,
   "tid": 1,
   "id": "3",
   "bp": "e"
  },
  {
   "name": "reduce",
   "cat": "contrib",
   "ph": "s",
   "ts": 700000,
   "pid": 0,
   "tid": 1,
   "id": "7",
   "args": {
    "bytes": 64
   }
  },
  {
   "name": "reduce",
   "cat": "contrib",
   "ph": "f",
   "ts": 750000,
   "pid": 0,
   "tid": 0,
   "id": "7",
   "bp": "e"
  },
  {
   "name": "engine.query_latency_s",
   "ph": "C",
   "ts": 0,
   "pid": 0,
   "tid": 0,
   "args": {
    "count": 0
   }
  },
  {
   "name": "engine.query_latency_s",
   "ph": "C",
   "ts": 1,
   "pid": 0,
   "tid": 0,
   "args": {
    "count": 0
   }
  },
  {
   "name": "engine.query_latency_s",
   "ph": "C",
   "ts": 2,
   "pid": 0,
   "tid": 0,
   "args": {
    "count": 0
   }
  },
  {
   "name": "engine.query_latency_s",
   "ph": "C",
   "ts": 3,
   "pid": 0,
   "tid": 0,
   "args": {
    "count": 1
   }
  },
  {
   "name": "engine.query_latency_s",
   "ph": "C",
   "ts": 4,
   "pid": 0,
   "tid": 0,
   "args": {
    "count": 1
   }
  },
  {
   "name": "engine.query_latency_s",
   "ph": "C",
   "ts": 5,
   "pid": 0,
   "tid": 0,
   "args": {
    "count": 0
   }
  },
  {
   "name": "engine.query_latency_s",
   "ph": "C",
   "ts": 6,
   "pid": 0,
   "tid": 0,
   "args": {
    "count": 0
   }
  },
  {
   "name": "engine.query_latency_s",
   "ph": "C",
   "ts": 7,
   "pid": 0,
   "tid": 0,
   "args": {
    "count": 0
   }
  }
 ],
 "displayTimeUnit": "ms",
 "otherData": {
  "engine": "pio"
 }
}
`
	if got := buf.String(); got != want {
		t.Fatalf("flow golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestFlowsDeterministicOrder: Flows() sorts by (ID, Src, Dst) no matter the
// recording interleave.
func TestFlowsDeterministicOrder(t *testing.T) {
	c := NewCollector()
	c.RecordFlow(Flow{ID: 5, Src: 1, Dst: 0, SendAt: 1, RecvAt: 2})
	c.RecordFlow(Flow{ID: 2, Src: 0, Dst: 1, SendAt: 0, RecvAt: 1})
	c.RecordFlow(Flow{ID: 5, Src: 0, Dst: 2, SendAt: 1, RecvAt: 2})
	got := c.Flows()
	if len(got) != 3 || got[0].ID != 2 || got[1].ID != 5 || got[1].Src != 0 || got[2].Src != 1 {
		t.Fatalf("flows out of order: %+v", got)
	}
}

// TestBuildFlowGraphDrops: non-finite and non-increasing edges are rejected
// and counted, never indexed.
func TestBuildFlowGraphDrops(t *testing.T) {
	g := BuildFlowGraph([]Flow{
		{ID: 1, Dst: 0, SendAt: 0, RecvAt: 1},            // kept
		{ID: 2, Dst: 0, SendAt: 1, RecvAt: 1},            // zero-length
		{ID: 3, Dst: 0, SendAt: 2, RecvAt: 1},            // backwards
		{ID: 4, Dst: 0, SendAt: math.NaN(), RecvAt: 1},   // NaN
		{ID: 5, Dst: 0, SendAt: 0, RecvAt: math.Inf(1)},  // Inf
		{ID: 6, Dst: 1, SendAt: 0, RecvAt: math.Inf(-1)}, // -Inf
	})
	if g.Dropped != 5 {
		t.Fatalf("dropped = %d, want 5", g.Dropped)
	}
	if len(g.Inbound[0]) != 1 || g.Inbound[0][0].ID != 1 {
		t.Fatalf("inbound wrong: %+v", g.Inbound)
	}
}

// TestLatestInbound: the window is half-open (after, upTo], and RecvAt ties
// resolve to the largest ID.
func TestLatestInbound(t *testing.T) {
	g := BuildFlowGraph([]Flow{
		{ID: 1, Dst: 0, SendAt: 0, RecvAt: 1},
		{ID: 2, Dst: 0, SendAt: 0, RecvAt: 2},
		{ID: 3, Dst: 0, SendAt: 0, RecvAt: 2},
	})
	if f, ok := g.LatestInbound(0, 0, 3); !ok || f.ID != 3 {
		t.Fatalf("want tie-broken ID 3, got %+v ok=%v", f, ok)
	}
	if f, ok := g.LatestInbound(0, 0, 1.5); !ok || f.ID != 1 {
		t.Fatalf("want ID 1 in (0, 1.5], got %+v ok=%v", f, ok)
	}
	if _, ok := g.LatestInbound(0, 2, 3); ok {
		t.Fatal("window (2, 3] should be empty")
	}
	if _, ok := g.LatestInbound(0, 1, 1); ok {
		t.Fatal("empty window (1, 1] should miss")
	}
	if _, ok := g.LatestInbound(9, 0, 10); ok {
		t.Fatal("unknown rank should have no inbound edges")
	}
}

// TestConcurrentFlowRecording is the flow-path -race gate: rank goroutines
// record flows and spans while the main goroutine snapshots Flows() and
// exports the full trace (with counter tracks) mid-run.
func TestConcurrentFlowRecording(t *testing.T) {
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
				c.RecordFlow(Flow{
					Kind: FlowMsg, Op: "shuffle",
					ID:  int64(rank*iters + i),
					Src: rank, Dst: (rank + 1) % ranks,
					Bytes: i, Batch: i % 4,
					SendAt: from, RecvAt: from + 0.25,
				})
				reg.Distribution("engine.query_latency_s", rank, metrics.LatencyBuckets()).Observe(from / 100)
			}
		}(rk)
	}
	for i := 0; i < 10; i++ {
		_ = c.Flows()
		var sink bytes.Buffer
		if err := c.WriteChromeTraceMetrics(&sink, nil, reg.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := len(c.Flows()); got != ranks*iters {
		t.Fatalf("flows recorded = %d, want %d", got, ranks*iters)
	}
	g := BuildFlowGraph(c.Flows())
	if g.Dropped != 0 {
		t.Fatalf("dropped %d well-formed flows", g.Dropped)
	}
}

// FuzzFlowGraph: the graph builder must never panic and never admit an
// edge that could close a cycle — every surviving edge strictly increases
// in time, and every inbound list is sorted by (RecvAt, ID).
func FuzzFlowGraph(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	seed := make([]byte, 0, 64)
	for i := 0; i < 64; i++ {
		seed = append(seed, byte(i*37))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var flows []Flow
		for len(data) >= 20 {
			flows = append(flows, Flow{
				ID:     int64(int16(binary.LittleEndian.Uint16(data[0:]))),
				Src:    int(int8(data[2])),
				Dst:    int(int8(data[3])),
				SendAt: math.Float64frombits(binary.LittleEndian.Uint64(data[4:])),
				RecvAt: math.Float64frombits(binary.LittleEndian.Uint64(data[12:])),
			})
			data = data[20:]
		}
		g := BuildFlowGraph(flows) // must not panic
		kept := 0
		for dst, in := range g.Inbound {
			kept += len(in)
			for i, e := range in {
				if e.Dst != dst {
					t.Fatalf("edge indexed under wrong rank: %+v at %d", e, dst)
				}
				// Acyclicity witness: only strictly time-increasing finite
				// edges survive, so no walk can return to an earlier point.
				if !(e.RecvAt > e.SendAt) || math.IsInf(e.SendAt, 0) || math.IsInf(e.RecvAt, 0) {
					t.Fatalf("non-causal edge admitted: %+v", e)
				}
				if i > 0 && (in[i-1].RecvAt > e.RecvAt ||
					(in[i-1].RecvAt == e.RecvAt && in[i-1].ID > e.ID)) {
					t.Fatalf("inbound list unsorted at %d: %+v then %+v", dst, in[i-1], e)
				}
			}
		}
		if kept+g.Dropped != len(flows) {
			t.Fatalf("kept %d + dropped %d != %d total", kept, g.Dropped, len(flows))
		}
		// The wait-for traversal primitive must respect its window on any input.
		for dst := range g.Inbound {
			if e, ok := g.LatestInbound(dst, 0, math.MaxFloat64); ok && e.RecvAt <= 0 {
				t.Fatalf("LatestInbound returned edge outside window: %+v", e)
			}
		}
	})
}
