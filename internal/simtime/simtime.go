// Package simtime provides the virtual-time accounting used by the cluster
// simulation: per-rank clocks with named phase buckets, and the cost model
// that converts work (bytes moved, BLAST work units) into virtual seconds.
//
// The parallel engines in this repository execute real data flow (real
// messages, real bytes, real search results), but report *virtual* time:
// every compute, communication, and I/O action advances the acting rank's
// clock by a deterministic model cost. This reproduces the paper's cluster-
// scale performance shapes on a single machine, independent of wall-clock
// noise.
package simtime

import "fmt"

// Phase is a bucket of the paper's execution-time breakdown (Table 1).
type Phase uint8

const (
	PhaseCopy   Phase = iota // mpiBLAST: fragment copy to local storage
	PhaseInput               // pioBLAST: parallel read of the shared database
	PhaseSearch              // BLAST kernel compute
	PhaseOutput              // result merging and result-file writing
	PhaseOther               // broadcast, setup, cleanup
	// PhaseIdle marks a rank waiting for work that other ranks are doing
	// (the master parked while workers search). It is excluded from the
	// reported per-phase maxima: the paper's stacked bars attribute each
	// wall-clock interval to the phase the busy ranks are in.
	PhaseIdle
	numPhases
)

var phaseNames = [numPhases]string{"copy", "input", "search", "output", "other", "idle"}

// String is the phase's name in reports and traces.
func (p Phase) String() string { return phaseNames[p] }

// Clock is one rank's virtual clock. It is not safe for concurrent use;
// under the sequential discrete-event scheduler only the owning rank
// touches it.
type Clock struct {
	now      float64
	phase    Phase
	entered  uint8 // bit p set once phase p has been advanced in
	buckets  [numPhases]float64
	observer func(phase string, from, to float64)
}

// NewClock returns a clock at time zero charging PhaseOther.
func NewClock() *Clock { return &Clock{phase: PhaseOther} }

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Phase returns the currently charged phase.
func (c *Clock) Phase() Phase { return c.phase }

// SetPhase switches the bucket that subsequent time is charged to.
//
//lint:clock
func (c *Clock) SetPhase(phase Phase) { c.phase = phase }

// SetObserver installs a callback invoked for every nonzero advance with the
// charged phase's name and the covered interval — the hook the trace collector
// uses to build timelines. Pass nil to disable.
func (c *Clock) SetObserver(fn func(phase string, from, to float64)) { c.observer = fn }

// Advance adds d seconds to the clock, charged to the current phase.
// Negative d panics: virtual time is monotone.
//
//lint:clock
func (c *Clock) Advance(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative advance %g", d))
	}
	from := c.now
	c.now += d
	c.buckets[c.phase] += d
	c.entered |= 1 << c.phase
	if c.observer != nil && d > 0 {
		c.observer(c.phase.String(), from, c.now)
	}
}

// AdvanceTo moves the clock forward to t if t is in the future; waiting
// time is charged to the current phase (a rank stalled in the output
// protocol is spending output time, exactly as the paper accounts it).
//
//lint:clock
func (c *Clock) AdvanceTo(t float64) {
	if t > c.now {
		c.Advance(t - c.now)
	}
}

// OverlapSplit splits an asynchronous operation's [start, end) interval,
// observed at time now, into the part hidden behind whatever the rank did
// in the meantime and the part still exposed (left to wait out). It is the
// accounting identity behind async I/O: a rank that starts an access, then
// computes, then waits, advances by max(io, compute) instead of their sum,
// and hidden+exposed always equals the operation's full duration.
func OverlapSplit(start, end, now float64) (hidden, exposed float64) {
	if end <= start {
		return 0, 0
	}
	hidden = end - start
	if now < end {
		exposed = end - now
		hidden -= exposed
	}
	if hidden < 0 {
		hidden = 0
	}
	return hidden, exposed
}

// Bucket returns the accumulated seconds of one phase.
func (c *Clock) Bucket(phase Phase) float64 { return c.buckets[phase] }

// Buckets returns the accumulations of every phase the clock was advanced
// in, by name, zero-length advances included.
func (c *Clock) Buckets() map[string]float64 {
	out := make(map[string]float64, numPhases)
	for p, v := range c.buckets {
		if c.entered&(1<<p) != 0 {
			out[Phase(p).String()] = v
		}
	}
	return out
}

// Breakdown summarises one or many clocks into the paper's phase rows.
type Breakdown struct {
	Copy   float64
	Input  float64
	Search float64
	Output float64
	Other  float64
	Total  float64
}

// BreakdownOf converts a clock's buckets into a Breakdown.
func BreakdownOf(c *Clock) Breakdown {
	b := Breakdown{
		Copy:   c.Bucket(PhaseCopy),
		Input:  c.Bucket(PhaseInput),
		Search: c.Bucket(PhaseSearch),
		Output: c.Bucket(PhaseOutput),
		Other:  c.Bucket(PhaseOther),
	}
	b.Total = b.Copy + b.Input + b.Search + b.Output + b.Other
	return b
}

// NonSearch returns everything except the search bucket ("other" time in
// the paper's Figure 1(a) sense).
func (b Breakdown) NonSearch() float64 { return b.Total - b.Search }

// String renders the breakdown as a Table-1-style row.
func (b Breakdown) String() string {
	return fmt.Sprintf("copy/input=%.1f search=%.1f output=%.1f other=%.1f total=%.1f",
		b.Copy+b.Input, b.Search, b.Output, b.Other, b.Total)
}

// CostModel holds the deterministic constants that convert work into
// virtual seconds. The defaults describe a 2004-era cluster in the spirit
// of the paper's platforms; they are knobs, not measurements.
type CostModel struct {
	// NetLatency is the per-message latency in seconds.
	NetLatency float64
	// NetBandwidth is point-to-point bandwidth in bytes/second.
	NetBandwidth float64
	// SearchUnitCost converts blast.WorkCounters.Units() into seconds.
	SearchUnitCost float64
	// FormatByteCost is the per-byte cost of rendering report text.
	FormatByteCost float64
	// MergeItemCost is the per-metadata-item cost of sorting/filtering
	// result records during merging (both engines pay this).
	MergeItemCost float64
	// FetchItemCost is the baseline master's per-alignment cost of
	// fetching and processing one hit's alignment data through the NCBI
	// result structures — the serialized pipeline pioBLAST eliminates.
	// (The paper measures ~13 ms per output alignment on its platform.)
	FetchItemCost float64
	// MemCopyBandwidth is the bytes/second of in-memory buffer copies.
	MemCopyBandwidth float64
	// ResultMsgCost is the master's cost of ingesting one per-fragment
	// result submission in the baseline: the NCBI SeqAlign structures are
	// deserialized and spliced into the master's result list. pioBLAST's
	// flat metadata records don't pay this, which is why the baseline's
	// merging time grows with the number of fragments/workers.
	ResultMsgCost float64
	// SetupCost is the fixed per-run engine initialization/cleanup charged
	// to the "other" phase (NCBI toolkit init, query broadcast handling).
	SetupCost float64
}

// DefaultCostModel mirrors a Myrinet/GigE-class interconnect and a
// 1.5 GHz Itanium2-class node.
func DefaultCostModel() CostModel {
	return CostModel{
		NetLatency:       40e-6,
		NetBandwidth:     100e6,
		SearchUnitCost:   56e-9,
		FormatByteCost:   40e-9,
		MergeItemCost:    3e-6,
		FetchItemCost:    1500e-6,
		MemCopyBandwidth: 1e9,
		ResultMsgCost:    400e-6,
		SetupCost:        12e-3,
	}
}

// FaultDetectInterval is the failure detectors' polling interval in virtual
// seconds: how long a crash-aware receive waits before it checks ground-truth
// liveness. Detection is timeout-paced but never wrong — a timeout only
// triggers the check — so the interval sets how fast a crash is noticed, not
// whether it is.
func (m CostModel) FaultDetectInterval() float64 { return 250 * m.NetLatency }

// Validate rejects models that would divide by zero or run time backwards.
func (m CostModel) Validate() error {
	if m.NetLatency < 0 || m.NetBandwidth <= 0 || m.SearchUnitCost < 0 ||
		m.FormatByteCost < 0 || m.MergeItemCost < 0 || m.FetchItemCost < 0 ||
		m.MemCopyBandwidth <= 0 || m.ResultMsgCost < 0 || m.SetupCost < 0 {
		return fmt.Errorf("simtime: invalid cost model %+v", m)
	}
	return nil
}
