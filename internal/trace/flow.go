package trace

import (
	"math"
	"sort"
)

// Causal message-flow recording: every delivered MPI message (and every
// collective contribution/release) becomes one Flow edge linking a send
// point on the source rank's timeline to a delivery point on the
// destination rank's. The mpi layer records them straight into the
// collector on its Config (mpi imports this package, never the reverse —
// the clock-neutrality contract), the Chrome exporter serializes them as
// flow-event pairs, and the report package's wait-for analyzer walks them
// backward to compute the exact cross-rank critical path.

// Flow kinds. A "msg" edge is one point-to-point message delivery; a
// "contrib" edge links one collective participant's entry to the
// operation's fold site (the last-arriving live rank, whose entry clock
// determines the release); a "release" edge links the fold site back to
// each participant's resume point.
const (
	FlowMsg     = "msg"
	FlowContrib = "contrib"
	FlowRelease = "release"
)

// Flow is one causal edge between two rank timelines. SendAt is the
// source's virtual time when the payload left it; RecvAt is the
// destination's virtual time when delivery (or collective release)
// completed. Batch is the query-batch trace context stamped at send time
// (-1 = none). ID is unique and deterministic within one run (mpi draws it
// from the world's message sequence). Recording a flow reads clocks and
// never advances one.
//
//lint:trace-context
type Flow struct {
	Kind   string
	Op     string // "tagNN" for messages, the collective op name otherwise
	ID     int64
	Batch  int
	Src    int
	Dst    int
	Bytes  int
	SendAt float64
	RecvAt float64
}

// RecordFlow adds one causal edge. Safe for concurrent use.
func (c *Collector) RecordFlow(f Flow) {
	c.mu.Lock()
	c.flows = append(c.flows, f)
	c.mu.Unlock()
}

// Flows returns a copy of every recorded edge, ordered by (ID, Src, Dst)
// — deterministic regardless of recording interleave.
func (c *Collector) Flows() []Flow {
	c.mu.Lock()
	out := append([]Flow(nil), c.flows...)
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	return out
}

// FlowGraph indexes causal edges by endpoint rank for the wait-for
// analysis. Only time-respecting edges survive construction (RecvAt
// strictly after SendAt, both finite), so every path through the graph
// strictly increases in time — the graph is acyclic by construction.
type FlowGraph struct {
	// Inbound maps each destination rank to its incoming edges, sorted by
	// (RecvAt, ID) ascending.
	Inbound map[int][]Flow
	// Dropped counts edges rejected for non-increasing or non-finite
	// timestamps.
	Dropped int
}

// BuildFlowGraph sanitizes and indexes a set of edges. Edges with NaN or
// infinite endpoints, or with RecvAt <= SendAt, are dropped (counted in
// Dropped): admitting them could create zero-length causal loops.
func BuildFlowGraph(flows []Flow) *FlowGraph {
	g := &FlowGraph{Inbound: make(map[int][]Flow)}
	for _, f := range flows {
		if !finite(f.SendAt) || !finite(f.RecvAt) || f.RecvAt <= f.SendAt {
			g.Dropped++
			continue
		}
		g.Inbound[f.Dst] = append(g.Inbound[f.Dst], f)
	}
	for dst := range g.Inbound {
		in := g.Inbound[dst]
		sort.Slice(in, func(i, j int) bool {
			if in[i].RecvAt != in[j].RecvAt {
				return in[i].RecvAt < in[j].RecvAt
			}
			return in[i].ID < in[j].ID
		})
	}
	return g
}

// LatestInbound returns the edge into dst with the largest RecvAt in the
// half-open window (after, upTo], preferring the largest ID on RecvAt
// ties. ok=false when no edge lands in the window.
func (g *FlowGraph) LatestInbound(dst int, after, upTo float64) (Flow, bool) {
	in := g.Inbound[dst]
	// Binary search for the first edge with RecvAt > upTo, then walk back.
	lo := sort.Search(len(in), func(i int) bool { return in[i].RecvAt > upTo })
	if lo == 0 {
		return Flow{}, false
	}
	best := in[lo-1]
	if best.RecvAt <= after {
		return Flow{}, false
	}
	// Prefer the largest ID among equal-RecvAt edges (the sort put it last).
	return best, true
}

func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
