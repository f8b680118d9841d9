package main

import "sort"

// span is one timed call made by the benchmark into a layer. Spans stay in
// memory during the traced pass and are written to trace.json at exit. The
// recorder never reads the clock: callers pass timestamps in.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 = no parent
	TraceID string  `json:"trace_id"`
	Layer   string  `json:"layer"`
	Name    string  `json:"name"`
	Start   float64 `json:"start_s"`
	End     float64 `json:"end_s"`
	Self    float64 `json:"self_s"`
}

type recorder struct {
	spans []span
}

// begin opens a span and returns its id (ids start at 1).
func (r *recorder) begin(parent int, traceID, layer, name string, at float64) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, TraceID: traceID, Layer: layer, Name: name, Start: at, End: at})
	return id
}

// end closes a span.
func (r *recorder) end(id int, at float64) { r.spans[id-1].End = at }

// finish computes every span's self time: its duration minus the part of
// its interval that its child spans cover. Children are clipped to the
// parent and overlapping children are counted once.
func (r *recorder) finish() []span {
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, upTo := 0.0, s.Start
		for _, k := range kids {
			from, to := max(k.Start, upTo), min(k.End, s.End)
			if to > from {
				covered += to - from
				upTo = to
			}
		}
		s.Self = (s.End - s.Start) - covered
	}
	return r.spans
}

// selfByLayer sums self time per layer.
func selfByLayer(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Layer] += s.Self
	}
	return out
}
