package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"parblast/internal/metrics"
)

// Chrome trace-event export: serializes the collector into the Chrome
// trace-event JSON format (the "JSON Array Format" of the Trace Event
// spec), loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Mapping:
//   - the whole simulated cluster is one process (pid 0) named by the
//     caller's metadata;
//   - each MPI rank is one thread (tid = rank), so Perfetto draws one
//     track per rank stacked in rank order;
//   - phase spans become "X" (complete) events with ts/dur in
//     microseconds of VIRTUAL time — 1 µs on the viewer's axis is 1 µs of
//     simulated time;
//   - point events (fault firings, recovery decisions) become "i"
//     (instant) events with thread scope, drawn as markers on the rank's
//     track;
//   - causal flows (message deliveries, collective contributions and
//     releases) become "s"/"f" flow-event pairs sharing an id: Perfetto
//     draws an arrow from the send point on the source rank's track to
//     the delivery point on the destination's. The finish end binds to
//     the enclosing slice (bp "e") so the arrow lands inside the phase
//     span that consumed the message;
//   - metrics histograms/distributions become "C" counter tracks (one
//     sample per bucket, ts = bucket index), so latency and volume
//     distributions are visible next to the rank timelines;
//   - span/event attributes and caller metadata ride in "args".
//
// The output is deterministic: ranks ascending, each rank's spans in
// recorded order, flows by id, counter series in snapshot (name, rank)
// order, fixed field order (struct order for events, sorted keys for args
// maps), so repeated runs of the same simulation produce byte-identical
// trace files.

// chromeEvent is one entry of the traceEvents array. Field order here is
// the serialization order; fields absent from pre-flow traces are all
// omitempty, so histories without flows serialize exactly as before.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// usec converts virtual seconds to the trace format's microseconds,
// rounded so abutting spans keep exact shared boundaries.
func usec(s float64) float64 {
	return math.Round(s * 1e6)
}

// attrArgs widens a string attribute map into the args form (nil in, nil
// out, so attribute-free events keep omitting the args key).
func attrArgs(attrs map[string]string) map[string]any {
	if attrs == nil {
		return nil
	}
	out := make(map[string]any, len(attrs))
	for k, v := range attrs {
		out[k] = v
	}
	return out
}

// WriteChromeTrace writes the whole collector as a Chrome trace-event JSON
// document. meta annotates the run (engine, platform, procs, ...): it
// becomes both the process name and the top-level otherData block. The
// document is indented and deterministic (see package comment), so golden
// tests can compare bytes.
func (c *Collector) WriteChromeTrace(w io.Writer, meta map[string]string) error {
	return c.WriteChromeTraceMetrics(w, meta, metrics.Snapshot{})
}

// WriteChromeTraceMetrics is WriteChromeTrace plus counter tracks built
// from a metrics snapshot: every histogram and distribution series becomes
// one "C" track per (name, rank) with one sample per bucket.
func (c *Collector) WriteChromeTraceMetrics(w io.Writer, meta map[string]string, snap metrics.Snapshot) error {
	doc := chromeTrace{
		TraceEvents:     []chromeEvent{},
		DisplayTimeUnit: "ms",
	}
	if len(meta) > 0 {
		doc.OtherData = meta
	}
	procName := "parblast simulated cluster"
	if n, ok := meta["name"]; ok && n != "" {
		procName = n
	}
	doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
		Name: "process_name",
		Ph:   "M",
		Pid:  0,
		Args: map[string]any{"name": procName},
	})
	for _, rank := range c.Ranks() {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name",
			Ph:   "M",
			Pid:  0,
			Tid:  rank,
			Args: map[string]any{"name": rankLabel(rank)},
		})
	}
	for _, rank := range c.Ranks() {
		for _, s := range c.Spans(rank) {
			dur := usec(s.To) - usec(s.From)
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: s.Phase,
				Ph:   "X",
				Ts:   usec(s.From),
				Dur:  &dur,
				Pid:  0,
				Tid:  rank,
			})
		}
		for _, e := range c.Events(rank) {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: e.Name,
				Ph:   "i",
				Ts:   usec(e.At),
				Pid:  0,
				Tid:  rank,
				S:    "t",
				Args: attrArgs(e.Attrs),
			})
		}
	}
	for _, f := range c.Flows() {
		id := fmt.Sprintf("%d", f.ID)
		args := map[string]any{"bytes": f.Bytes}
		if f.Batch >= 0 {
			args["batch"] = f.Batch
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: f.Op,
			Cat:  f.Kind,
			Ph:   "s",
			Ts:   usec(f.SendAt),
			Pid:  0,
			Tid:  f.Src,
			ID:   id,
			Args: args,
		})
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: f.Op,
			Cat:  f.Kind,
			Ph:   "f",
			Ts:   usec(f.RecvAt),
			Pid:  0,
			Tid:  f.Dst,
			ID:   id,
			BP:   "e",
		})
	}
	for _, hp := range snap.Histograms {
		doc.TraceEvents = append(doc.TraceEvents, counterTrack(hp.Name, hp.Rank, hp.Counts)...)
	}
	for _, dp := range snap.Distributions {
		doc.TraceEvents = append(doc.TraceEvents, counterTrack(dp.Name, dp.Rank, dp.Counts)...)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// counterTrack renders one bucket-count series as a Perfetto counter
// track: one "C" sample per bucket at ts = bucket index (the x-axis is
// bucket ordinal, not time — the track shows the distribution's shape).
func counterTrack(name string, rank int, counts []int64) []chromeEvent {
	out := make([]chromeEvent, 0, len(counts))
	for i, n := range counts {
		out = append(out, chromeEvent{
			Name: name,
			Ph:   "C",
			Ts:   float64(i),
			Pid:  0,
			Tid:  rank,
			Args: map[string]any{"count": n},
		})
	}
	return out
}

// rankLabel names a rank's track: rank 0 is the master in both engines.
func rankLabel(rank int) string {
	if rank == 0 {
		return "rank 0 (master)"
	}
	return fmt.Sprintf("rank %d", rank)
}
