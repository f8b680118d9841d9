package report

import (
	"sort"

	"parblast/internal/simtime"
	"parblast/internal/trace"
)

// Wait-for analysis: walk the causal flow graph backward from the run's
// global finish to produce the EXACT cross-rank critical path — the chain
// of work and message deliveries that bounds the wall time — with every
// second of it blamed on one of five categories. This replaces guesswork
// ("the slowest rank's dominant phase") with causality: when the walk hits
// an idle span it asks WHICH delivery ended the wait and jumps to the
// sender, so the path crosses ranks exactly where the run actually
// serialized.
//
// Blame categories:
//
//	io             — time in the copy/input/output phases on the path
//	search         — time in the search phase on the path
//	other          — setup/encode/decode time (and untracked gaps)
//	net            — send-to-delivery time of path messages (latency +
//	                 receive bandwidth of the releasing delivery)
//	peer-not-ready — idle time NOT covered by an inbound delivery: the
//	                 receiver was parked before the sender even sent
//
// The walk tiles the interval [path start, finish] exactly: the blame
// amounts sum to Finish minus Unexplained (time before the first span).

// BlameBreakdown is virtual seconds of critical-path time per category.
type BlameBreakdown struct {
	Net          float64 `json:"net_s"`
	PeerNotReady float64 `json:"peer_not_ready_s"`
	IO           float64 `json:"io_s"`
	Search       float64 `json:"search_s"`
	Other        float64 `json:"other_s"`
}

// add books d seconds against one category.
func (b *BlameBreakdown) add(category string, d float64) {
	switch category {
	case "net":
		b.Net += d
	case "peer-not-ready":
		b.PeerNotReady += d
	case "io":
		b.IO += d
	case "search":
		b.Search += d
	default:
		b.Other += d
	}
}

// Total sums all categories.
func (b BlameBreakdown) Total() float64 {
	return b.Net + b.PeerNotReady + b.IO + b.Search + b.Other
}

// Dominant names the largest category, name-ordered on ties.
func (b BlameBreakdown) Dominant() string {
	best, bestV := "", -1.0
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"io", b.IO},
		{"net", b.Net},
		{"other", b.Other},
		{"peer-not-ready", b.PeerNotReady},
		{"search", b.Search},
	} {
		if c.v > bestV {
			best, bestV = c.name, c.v
		}
	}
	return best
}

// BatchBlame is one query batch's share of the critical path. Batch -1
// collects path time outside any batch context (setup, broadcasts).
type BatchBlame struct {
	Batch int            `json:"batch"`
	Blame BlameBreakdown `json:"blame"`
}

// ExactPath is the wait-for analyzer's artifact block.
type ExactPath struct {
	// FinishRank/Finish anchor the walk: the rank whose last span ends
	// latest, and that time.
	FinishRank int     `json:"finish_rank"`
	Finish     float64 `json:"finish_s"`
	// Steps counts walk iterations; Hops counts cross-rank jumps (each one
	// a message or collective release the finish causally waited on).
	Steps int `json:"steps"`
	Hops  int `json:"hops"`
	// Blame is the whole path's category breakdown; Dominant names its
	// largest category (deterministic tie-break).
	Blame    BlameBreakdown `json:"blame"`
	Dominant string         `json:"dominant"`
	// Batches splits the blame by query-batch trace context, ascending by
	// batch id (-1 first when present).
	Batches []BatchBlame `json:"batches,omitempty"`
	// Unexplained is path time before the first recorded span (normally 0);
	// DroppedFlows counts flow edges the graph builder rejected.
	Unexplained  float64 `json:"unexplained_s"`
	DroppedFlows int     `json:"dropped_flows"`
}

// phaseCategory maps a span phase to a blame category.
func phaseCategory(phase string) string {
	switch phase {
	case simtime.PhaseCopy.String(), simtime.PhaseInput.String(), simtime.PhaseOutput.String():
		return "io"
	case simtime.PhaseSearch.String():
		return "search"
	default:
		return "other"
	}
}

// maxWaitForSteps caps the walk; every step strictly decreases the cursor
// time, so the cap only fires on pathological adversarial input (fuzzing).
const maxWaitForSteps = 1 << 20

// ExactCriticalPath runs the wait-for analysis over a collector's spans
// and flows. Returns nil when no spans were recorded (nothing to anchor
// the walk). Deterministic: same collector content, same path.
func ExactCriticalPath(col *trace.Collector) *ExactPath {
	if col == nil {
		return nil
	}
	spans := make(map[int][]trace.Span)
	finishRank, finish := -1, 0.0
	for _, rank := range col.Ranks() {
		ss := col.Spans(rank)
		sort.SliceStable(ss, func(i, j int) bool { return ss[i].From < ss[j].From })
		spans[rank] = ss
		for _, s := range ss {
			if s.To > finish || (s.To == finish && finishRank < 0) {
				finishRank, finish = rank, s.To
			}
		}
	}
	if finishRank < 0 {
		return nil
	}
	g := trace.BuildFlowGraph(col.Flows())
	p := &ExactPath{FinishRank: finishRank, Finish: finish, DroppedFlows: g.Dropped}
	perBatch := make(map[int]*BlameBreakdown)
	blame := func(batch int, category string, d float64) {
		if d <= 0 {
			return
		}
		p.Blame.add(category, d)
		bb := perBatch[batch]
		if bb == nil {
			bb = &BlameBreakdown{}
			perBatch[batch] = bb
		}
		bb.add(category, d)
	}

	rank, t := finishRank, finish
	batch := -1 // current trace context: the last traversed flow's batch
	for t > 0 && p.Steps < maxWaitForSteps {
		p.Steps++
		ss := spans[rank]
		// Last span starting strictly before the cursor.
		i := sort.Search(len(ss), func(k int) bool { return ss[k].From >= t }) - 1
		if i < 0 {
			// No span covers this rank before t: time predating the rank's
			// record is unexplained (the walk is done).
			p.Unexplained = t
			break
		}
		s := ss[i]
		if s.To < t {
			// Gap between spans: untracked local time.
			blame(batch, "other", t-s.To)
			t = s.To
			continue
		}
		if s.Phase != simtime.PhaseIdle.String() {
			blame(batch, phaseCategory(s.Phase), t-s.From)
			t = s.From
			continue
		}
		// Idle: find the delivery that ended the wait.
		if f, ok := g.LatestInbound(rank, s.From, t); ok {
			if f.Batch >= 0 {
				batch = f.Batch
			}
			blame(batch, "peer-not-ready", t-f.RecvAt)
			blame(batch, "net", f.RecvAt-f.SendAt)
			rank, t = f.Src, f.SendAt
			p.Hops++
			continue
		}
		// Idle with no inbound edge: the peer had not produced anything yet.
		blame(batch, "peer-not-ready", t-s.From)
		t = s.From
	}
	p.Dominant = p.Blame.Dominant()
	ids := make([]int, 0, len(perBatch))
	for id := range perBatch {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		p.Batches = append(p.Batches, BatchBlame{Batch: id, Blame: *perBatch[id]})
	}
	return p
}
