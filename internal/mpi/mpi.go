// Package mpi simulates an MPI runtime for the parallel BLAST engines:
// ranks are goroutines, messages are real byte payloads, and time is
// virtual, driven by a simtime.CostModel.
//
// # Execution model
//
// The world runs as a sequential discrete-event simulation: at any moment
// one rank holds the scheduler token; a rank in Aside computes without it
// (below), everyone else is parked. There is one
// ordering rule: every operation that observes or books state another rank
// can change — Recv, RecvTimeout, IO, StartIO, Failed — first parks its rank,
// and the scheduler hands the token to the eligible rank with the smallest
// virtual time (ties to the lowest id). A collective parks every participant
// but the last, whose arrival releases the rest at a time that depends on
// their clocks, not on the order they joined in. Operations that touch only
// the rank's own clock or append to another rank's inbox (Advance, Compute,
// Send, Wait) run without a handoff. This rule makes runs fully deterministic
// (identical clocks, identical message orders) while still exercising the
// real concurrent message-passing structure of the engines:
//
//   - a rank that is ready to run is eligible at its own clock;
//   - a rank parked in a receive is eligible at max(clock, earliest matching
//     arrival) — or at its deadline, or the crash time of the specific source
//     a RecvTimeout awaits, when that comes first — and ineligible while none
//     of those exists;
//   - a rank inside a collective is ineligible until the last participant
//     arrives, which releases everyone at the collective's completion time.
//
// Because a rank resumes only when its event is the globally earliest, every
// rank that could still send it an earlier message, book an earlier storage
// access or crash earlier has already run that far. That is what makes
// receive choices (including AnySource) exact and storage channels granted in
// virtual-time order, and why callers never place scheduling points
// themselves. Messages that arrive at the same instant are taken in (source,
// per-source send order), which does not depend on which sender the host
// happened to run first.
//
// The token is a value on a channel. Every rank owns one wake channel of
// capacity one; the holder parks itself, scans for the earliest event, and
// sends the token to exactly that rank (possibly itself), then receives on
// its own channel. World state is only ever touched by the token holder, and
// the send/receive pair is the happens-before edge between consecutive
// holders, so the world needs no lock and a handoff wakes one goroutine.
// Ranks start parked in the ready state; Run makes the first grant. When the
// job stalls (deadlock, an unrecovered crash, a body error) the world is
// marked aborted and the remaining ranks are unwound through the same
// handoff, one at a time: each resumes into a panic that its goroutine
// recovers, and its exit passes the token to the next unfinished rank.
//
// Pure compute need not hold the token. Aside parks its rank ready at its own
// clock — one more scheduling point, which moves no clock — runs its function
// while parked, and then waits for the token like any parked rank. Every rank
// whose event comes earlier runs meanwhile, so the search kernels of ranks
// that reach it at nearby virtual times run on as many cores as the host has,
// and the schedule — every grant, every clock — is the one a token-held
// search would give.
//
// # Built once per world, charged once per rank
//
// All ranks live in one address space, so a value that is the same on every
// rank — what the participants of a collective derive from its gathered
// payloads (Once), the tree collectives' layout of a member list
// (World.layout) — is built by the host once and read by the rest, under the
// token and therefore without a lock. Neither outlives what it was built
// from: a derived value its collective's record, a layout the next call with
// another root, fan-out or member list. Every clock charge, message and
// collective byte stays per rank, so the model cannot tell.
//
// # Cost model
//
// Send charges the sender size/bandwidth (its NIC is busy), and the message
// arrives one latency later. Receive waits for arrival, then charges the
// receiver size/bandwidth. A master that handles per-item request/reply
// traffic therefore serializes on its own clock — the exact phenomenon the
// paper's result-merging analysis is about.
package mpi

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"parblast/internal/metrics"
	"parblast/internal/simtime"
	"parblast/internal/trace"
	"parblast/internal/vfs"
)

// AnySource matches a message from any rank; AnyTag matches any tag.
const (
	AnySource = -1
	AnyTag    = -1
)

type rankState int

const (
	stateReady rankState = iota
	stateRunning
	stateBlockedRecv
	stateBlockedColl
	stateDone
)

func (s rankState) String() string {
	switch s {
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateBlockedRecv:
		return "blocked-recv"
	case stateBlockedColl:
		return "blocked-collective"
	case stateDone:
		return "done"
	}
	return "?"
}

//lint:trace-context batch sendAt
type message struct {
	src, tag int
	data     []byte
	arrival  float64
	seq      int64
	// Trace-context sideband: the sender's query-batch id and the virtual
	// time the payload left its NIC. These ride OUTSIDE data so the
	// bandwidth charge (len(data)/NetBandwidth) is byte-identical with
	// tracing on or off.
	batch  int
	sendAt float64
}

//lint:trace-context batches
type collective struct {
	op        string
	datas     [][]byte
	count     int
	releaseFn func(datas [][]byte, maxClock float64) float64
	releaseAt float64
	// Per-rank causal context for flow emission: entry clock, trace batch,
	// and whether the rank joined at all (crashed ranks never do).
	entries []float64
	batches []int
	joined  []bool
	// derived is the one value the participants compute from datas after the
	// release (Once): built by the first of them to ask, read by the rest.
	derived    any
	hasDerived bool
}

// FaultKind classifies a scheduled fault.
type FaultKind int

const (
	// FaultCrash fail-stops the rank: at the first MPI operation after its
	// clock reaches At, the rank dies. Pending messages to it are dropped,
	// collectives complete over the surviving ranks, and peers observe the
	// failure through RecvTimeout/Failed or a crash-aware abort.
	FaultCrash FaultKind = iota
	// FaultDegrade slows the rank's compute by the Slow factor from At on
	// (a sick-but-alive node: thermal throttling, a competing job).
	FaultDegrade
)

// String names the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultDegrade:
		return "degrade"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault schedules one deterministic fault. Faults are part of the Config,
// so a given schedule always reproduces the same failure history.
type Fault struct {
	// Rank is the victim.
	Rank int
	// At is the virtual time the fault takes effect: finite and >= 0. A
	// crash fires at the victim's first MPI operation at or after At.
	At float64
	// Kind selects crash vs degrade.
	Kind FaultKind
	// Slow is the compute slowdown factor for FaultDegrade (2 = half
	// speed): finite and > 0. Ignored for crashes.
	Slow float64
}

// ErrTimeout is returned by RecvTimeout when the virtual-time deadline
// expires before a matching message arrives.
var ErrTimeout = errors.New("mpi: receive timed out")

// ErrRankFailed is returned (wrapped) by RecvTimeout when the awaited
// source rank has crashed. Test with errors.Is.
var ErrRankFailed = errors.New("mpi: peer rank failed")

// crashPanic unwinds a crashing rank's goroutine; it is not an error.
type crashPanic struct{ rank int }

// World is the shared state of one simulated MPI job.
type World struct {
	n      int
	cost   simtime.CostModel
	config Config

	// wake[i] carries the scheduler token to rank i. Capacity one: the
	// holder deposits the token without waiting for the receiver to park,
	// and may hand it to itself. Everything below belongs to the holder.
	wake []chan struct{}

	ranks        []*Rank
	states       []rankState
	recvSrc      []int // per rank, when blocked on recv
	recvTag      []int
	recvDeadline []float64 // virtual-time deadline, +Inf for plain Recv
	inbox        [][]message
	coll         *collective
	topo         treeTopo // the last tree layout built (layout)
	seq          int64
	doneCount    int
	aborted      bool
	abortMsg     string
	firstErr     error

	// Host-side accounting of Aside: ranks computing without the token now,
	// and the most at once.
	away, awayPeak int

	// Fault plane: per-rank schedule (immutable after setup) and outcome.
	crashAt     []float64 // scheduled crash time, +Inf = never
	degradeAt   []float64 // scheduled degrade time, +Inf = never
	degradeSlow []float64
	crashed     []bool
	crashTime   []float64 // actual crash time (first op at/after crashAt)
}

// Rank is one simulated MPI process.
//
//lint:rank-identity id
//lint:trace-context traceBatch
type Rank struct {
	id           int
	world        *World
	clock        *simtime.Clock
	coll         *collective // the collective this rank last joined
	degradeFired bool        // this rank's degrade is already marked on the trace
	// treeRound numbers this rank's tree reductions; the count is stamped on
	// every bundle it sends. Only touched by the rank's own goroutine.
	treeRound int64
	// traceBatch is the rank's current query-batch trace context (-1 =
	// none). Stamped on every outgoing envelope; adopted from incoming
	// envelopes at delivery, so context propagates causally across ranks.
	// Only touched by the rank's own goroutine.
	traceBatch int
}

type abortPanic struct{ msg string }

// Config bundles a cost model with optional per-rank heterogeneity.
type Config struct {
	Cost simtime.CostModel
	// Speeds scales each rank's compute cost: 1 is the baseline node,
	// 2 runs compute twice as slowly. nil, missing or zero entries mean 1;
	// negative and non-finite ones are rejected. Models the heterogeneous
	// clusters the paper's §5 load-balancing discussion targets.
	Speeds []float64
	// Comm, when non-nil, accumulates per-rank communication volume —
	// the metric behind the paper's §3.2 message-volume-reduction claim.
	Comm *CommStats
	// Faults schedules deterministic rank failures (see Fault). At most one
	// crash and one degrade per rank.
	Faults []Fault
	// Metrics, when non-nil, receives the run's unified telemetry: per-tag
	// message counts and bytes, collective-operation counts, and
	// receive-timeout waits, all labelled by sending/acting rank. Metrics
	// never advance virtual clocks, so enabling them cannot change any
	// reported phase time.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives the run's timelines: every rank's phase
	// spans (its clock's observer), one event per fired fault, and one flow
	// per causal edge — point-to-point deliveries recorded by the receiver,
	// collective contribution/release edges by the completing rank. The
	// recording rank holds the scheduler token, so records arrive in the
	// schedule's deterministic order. Tracing reads clocks and never
	// advances one, so enabling it cannot change any simulated time.
	Trace *trace.Collector
}

// ShuffleTagBase splits the tag space: tags at or above it belong to the
// collective-I/O data shuffle (internal/mpiio), below it to the engines'
// result-merging protocols. The split matters for measurement: the paper's
// §3.2 claim is about PROTOCOL volume (what flows through the master during
// merging), while shuffle volume is §3.3's deliberate network-for-disk
// trade.
const ShuffleTagBase = 1 << 20

// CollTagBase opens a third tag region, below the shuffle space, for the
// point-to-point messages that implement TREE collectives (TreeReduce,
// TreeBcast). Their bytes are collective-operation traffic —
// synchronization and aggregation, not merging protocol — so CommStats
// books them in the collective bucket even though they travel as ordinary
// sends.
const CollTagBase = 1 << 19

// CommStats tallies communication per rank, split into protocol traffic,
// collective-I/O shuffle traffic, and collective-operation payloads
// (Barrier/Bcast/AllGather contributions, plus the point-to-point
// hops of the tree collectives). The split keeps the paper's §3.2
// protocol-volume metric clean: collective synchronization is neither
// merging protocol nor shuffle data. Safe for concurrent use.
type CommStats struct {
	mu         sync.Mutex
	protocol   []int64
	shuffle    []int64
	collective []int64
	messages   []int64
}

// NewCommStats sizes a collector for n ranks.
func NewCommStats(n int) *CommStats {
	return &CommStats{
		protocol:   make([]int64, n),
		shuffle:    make([]int64, n),
		collective: make([]int64, n),
		messages:   make([]int64, n),
	}
}

func (c *CommStats) add(rank, tag int, bytes int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if rank < len(c.protocol) {
		switch {
		case tag >= ShuffleTagBase:
			c.shuffle[rank] += bytes
		case tag >= CollTagBase:
			c.collective[rank] += bytes
		default:
			c.protocol[rank] += bytes
		}
		c.messages[rank]++
	}
	c.mu.Unlock()
}

// addCollective books a collective-operation contribution in its own
// bucket, so Barrier/AllGather payloads never pollute the protocol metric.
func (c *CommStats) addCollective(rank int, bytes int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if rank < len(c.collective) {
		c.collective[rank] += bytes
		c.messages[rank]++
	}
	c.mu.Unlock()
}

// Rank returns one rank's sent protocol bytes, shuffle bytes, collective
// bytes, and message count.
func (c *CommStats) Rank(rank int) (protocol, shuffle, collective, messages int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rank >= len(c.protocol) {
		return 0, 0, 0, 0
	}
	return c.protocol[rank], c.shuffle[rank], c.collective[rank], c.messages[rank]
}

// Totals sums across ranks.
func (c *CommStats) Totals() (protocol, shuffle, collective, messages int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.protocol {
		protocol += c.protocol[i]
		shuffle += c.shuffle[i]
		collective += c.collective[i]
		messages += c.messages[i]
	}
	return protocol, shuffle, collective, messages
}

func (c Config) speed(rank int) float64 {
	if rank < len(c.Speeds) && c.Speeds[rank] > 0 {
		return c.Speeds[rank]
	}
	return 1
}

// Run executes body on n ranks and returns their clocks. It returns an
// error if any body returns an error, panics, or the job deadlocks.
func Run(n int, cost simtime.CostModel, body func(*Rank) error) ([]*simtime.Clock, error) {
	return RunConfig(n, Config{Cost: cost}, body)
}

// RunConfig is Run with per-rank heterogeneity.
func RunConfig(n int, cfg Config, body func(*Rank) error) ([]*simtime.Clock, error) {
	cost := cfg.Cost
	if n < 1 {
		return nil, fmt.Errorf("mpi: world size %d < 1", n)
	}
	if err := cost.Validate(); err != nil {
		return nil, err
	}
	for i, s := range cfg.Speeds {
		if s < 0 {
			return nil, fmt.Errorf("mpi: negative speed factor %g for rank %d", s, i)
		}
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("mpi: non-finite speed factor %g for rank %d", s, i)
		}
	}
	w := &World{
		n:            n,
		cost:         cost,
		config:       cfg,
		states:       make([]rankState, n),
		recvSrc:      make([]int, n),
		recvTag:      make([]int, n),
		recvDeadline: make([]float64, n),
		inbox:        make([][]message, n),
		wake:         make([]chan struct{}, n),
		crashAt:      make([]float64, n),
		degradeAt:    make([]float64, n),
		degradeSlow:  make([]float64, n),
		crashed:      make([]bool, n),
		crashTime:    make([]float64, n),
	}
	for i := 0; i < n; i++ {
		w.recvDeadline[i] = math.Inf(1)
		w.crashAt[i] = math.Inf(1)
		w.degradeAt[i] = math.Inf(1)
		w.degradeSlow[i] = 1
		w.crashTime[i] = math.Inf(1)
		w.wake[i] = make(chan struct{}, 1)
	}
	for _, f := range cfg.Faults {
		if f.Rank < 0 || f.Rank >= n {
			return nil, fmt.Errorf("mpi: fault targets invalid rank %d (world size %d)", f.Rank, n)
		}
		// A time that can never come would still arm every recovery protocol.
		if f.At < 0 || math.IsNaN(f.At) || math.IsInf(f.At, 0) {
			return nil, fmt.Errorf("mpi: fault for rank %d has invalid time %g", f.Rank, f.At)
		}
		switch f.Kind {
		case FaultCrash:
			if !math.IsInf(w.crashAt[f.Rank], 1) {
				return nil, fmt.Errorf("mpi: rank %d has more than one scheduled crash", f.Rank)
			}
			w.crashAt[f.Rank] = f.At
		case FaultDegrade:
			if f.Slow <= 0 {
				return nil, fmt.Errorf("mpi: degrade for rank %d needs Slow > 0, got %g", f.Rank, f.Slow)
			}
			if math.IsNaN(f.Slow) || math.IsInf(f.Slow, 0) {
				return nil, fmt.Errorf("mpi: degrade for rank %d has non-finite Slow %g", f.Rank, f.Slow)
			}
			if !math.IsInf(w.degradeAt[f.Rank], 1) {
				return nil, fmt.Errorf("mpi: rank %d has more than one scheduled degrade", f.Rank)
			}
			w.degradeAt[f.Rank] = f.At
			w.degradeSlow[f.Rank] = f.Slow
		default:
			return nil, fmt.Errorf("mpi: unknown fault kind %d for rank %d", int(f.Kind), f.Rank)
		}
	}
	clocks := make([]*simtime.Clock, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		r := &Rank{id: i, world: w, clock: simtime.NewClock(), traceBatch: -1}
		if cfg.Trace != nil {
			r.clock.SetObserver(cfg.Trace.Observer(i))
		}
		clocks[i] = r.clock
		w.ranks = append(w.ranks, r)
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(r *Rank) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					switch rec.(type) {
					case abortPanic, crashPanic:
						// Aborts carry their message in the world; a
						// crash is a simulated fault, not a Go error.
					default:
						w.fail(fmt.Errorf("mpi: rank %d panicked: %v", r.id, rec))
					}
				}
				w.finishRank(r.id)
			}()
			r.awaitToken()
			if err := body(r); err != nil {
				w.fail(fmt.Errorf("mpi: rank %d: %w", r.id, err))
			}
		}(w.ranks[i])
	}
	// Every rank starts parked in the zero (ready) state and Run holds the
	// token, so the first grant needs no handshake.
	w.schedule()
	wg.Wait()
	cfg.Metrics.Counter("mpi.aside_peak", 0).Add(int64(w.awayPeak))
	if w.firstErr != nil {
		return clocks, w.firstErr
	}
	if w.aborted {
		return clocks, fmt.Errorf("mpi: %s", w.abortMsg)
	}
	return clocks, nil
}

// fail records the first error a rank body returned or panicked with.
func (w *World) fail(err error) {
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// awaitToken parks the rank until it is handed the scheduler token. A rank
// woken into an aborted world unwinds instead of running.
func (r *Rank) awaitToken() {
	w := r.world
	<-w.wake[r.id]
	if w.aborted {
		panic(abortPanic{w.abortMsg})
	}
	w.states[r.id] = stateRunning
}

// finishRank marks the rank done and hands the token onward.
func (w *World) finishRank(id int) {
	w.states[id] = stateDone
	w.doneCount++
	w.schedule()
}

// schedule hands the token to the eligible rank with the smallest virtual
// time. The caller holds the token and has already parked itself. A stall
// with unfinished ranks aborts the world, and an aborted world hands the
// token to its lowest unfinished rank instead: that rank resumes into
// abortPanic and its finishRank calls schedule again, so the survivors
// unwind one at a time through the same handoff.
func (w *World) schedule() {
	next := -1
	if !w.aborted {
		next = w.earliestEligible()
		if next < 0 && w.doneCount < w.n {
			w.aborted, w.abortMsg = true, w.stallReason()
		}
	}
	if w.aborted {
		for i := 0; i < w.n && next < 0; i++ {
			if w.states[i] != stateDone {
				next = i
			}
		}
	}
	if next >= 0 {
		w.wake[next] <- struct{}{}
	}
}

// earliestEligible returns the rank whose next event is earliest in virtual
// time (ties to the lowest id), or -1 when no rank can run.
func (w *World) earliestEligible() int {
	bestRank := -1
	bestTime := math.Inf(1)
	for i := 0; i < w.n; i++ {
		var t float64
		switch w.states[i] {
		case stateReady:
			t = w.ranks[i].clock.Now()
		case stateBlockedRecv:
			// A receive with a deadline is always eligible: it wakes at the
			// earliest of the match, the timeout and — so that ErrRankFailed
			// is reported at the time it became true — its source's crash.
			dl := w.recvDeadline[i]
			t = dl
			if k := w.earliestMatch(i); k >= 0 {
				t = math.Min(t, w.inbox[i][k].arrival)
			}
			if src := w.recvSrc[i]; !math.IsInf(dl, 1) && w.dead(src) {
				t = math.Min(t, w.crashTime[src])
			}
			if math.IsInf(t, 1) {
				continue
			}
			t = math.Max(t, w.ranks[i].clock.Now())
		default:
			continue
		}
		if t < bestTime || (t == bestTime && i < bestRank) {
			bestTime = t
			bestRank = i
		}
	}
	return bestRank
}

// stallReason names why no unfinished rank can run.
func (w *World) stallReason() string {
	if w.firstErr != nil {
		// A rank died with an error; release everyone else.
		return fmt.Sprintf("aborted after error: %v", w.firstErr)
	}
	// A stall with dead ranks is not a protocol deadlock: name the
	// failure so callers see WHY their peers never answered.
	if dump := w.crashDump(); dump != "" {
		return "unrecovered rank failure (" + dump + "): " + w.stateDump()
	}
	return "deadlock: " + w.stateDump()
}

// crashDump lists crashed ranks, or "" when none crashed.
func (w *World) crashDump() string {
	var b strings.Builder
	for i := 0; i < w.n; i++ {
		if w.crashed[i] {
			if b.Len() > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "rank %d crashed at t=%.6f", i, w.crashTime[i])
		}
	}
	return b.String()
}

func (w *World) stateDump() string {
	var b strings.Builder
	for i := 0; i < w.n; i++ {
		fmt.Fprintf(&b, "rank %d %s t=%.3f", i, w.states[i], w.ranks[i].clock.Now())
		if w.states[i] == stateBlockedRecv {
			fmt.Fprintf(&b, " (waiting src=%d tag=%d, %d queued)",
				w.recvSrc[i], w.recvTag[i], len(w.inbox[i]))
		}
		b.WriteString("; ")
	}
	return b.String()
}

// earliestMatch returns the inbox index of the message rank i's pending
// receive takes next, or -1 when none is queued: the smallest arrival, ties
// to the lowest source. One source's messages are queued in send order with
// non-decreasing arrivals, so keeping the first of equals orders them too —
// and none of it depends on the host order in which senders ran.
func (w *World) earliestMatch(i int) int {
	src, tag := w.recvSrc[i], w.recvTag[i]
	q := w.inbox[i]
	best := -1
	for k, m := range q {
		if (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag) {
			if best < 0 || m.arrival < q[best].arrival ||
				(m.arrival == q[best].arrival && m.src < q[best].src) {
				best = k
			}
		}
	}
	return best
}

// deliver takes message k out of the rank's inbox and charges its delivery:
// wait for the arrival, then the receiver's share of the transfer.
func (r *Rank) deliver(k int) message {
	w := r.world
	m := w.inbox[r.id][k]
	w.inbox[r.id] = append(w.inbox[r.id][:k], w.inbox[r.id][k+1:]...)
	r.clock.AdvanceTo(m.arrival)
	r.clock.Advance(float64(len(m.data)) / w.cost.NetBandwidth)
	r.deliverFlow(m)
	return m
}

// block parks the calling rank (the token holder) in the given state, hands
// the token on, and returns when the rank is granted it again.
func (r *Rank) block(s rankState) {
	r.world.states[r.id] = s
	r.world.schedule()
	r.awaitToken()
}

// Aside runs f — host work that touches no world state and no clock, such as
// the search kernel — without the scheduler token. The rank parks ready at
// its own clock, which is one more scheduling point and so moves no clock;
// every rank whose event is earlier runs while f does, and if none is, the
// token waits in the rank's wake channel until f returns. A rank whose own
// crash is still pending runs f on the token instead: parked, it would let a
// peer at an earlier clock ask Failed first, and the peer would miss the crash
// it sees when this rank runs on to it.
func (r *Rank) Aside(f func()) {
	r.maybeCrash()
	w := r.world
	if !math.IsInf(w.crashAt[r.id], 1) {
		f()
		return
	}
	w.away++
	w.awayPeak = max(w.awayPeak, w.away)
	w.config.Metrics.Counter("mpi.asides", 0).Inc()
	w.states[r.id] = stateReady
	w.schedule()
	// Even if f panics, the rank unwinds holding the token.
	defer func() {
		r.awaitToken()
		w.away--
	}()
	f()
}

// maybeCrash fires this rank's scheduled crash if its clock has reached
// the fault time. Called at the entry of every MPI operation, so a crash
// always happens at an operation boundary while the rank holds the
// scheduler token — which keeps the failure history deterministic. A
// crashing rank completes any collective it strands (the survivors don't
// wait for the dead) and unwinds its goroutine via crashPanic.
func (r *Rank) maybeCrash() {
	w := r.world
	if r.clock.Now() < w.crashAt[r.id] {
		return
	}
	now := r.clock.Now()
	if w.crashed[r.id] { // already unwinding
		panic(crashPanic{r.id})
	}
	w.crashed[r.id] = true
	w.crashTime[r.id] = now
	w.maybeCompleteCollective()
	w.traceFault(r.id, FaultCrash, now)
	panic(crashPanic{r.id})
}

// traceFault marks a fired fault on the victim's timeline. Called once per
// fault, from the victim's goroutine while it holds the scheduler token.
func (w *World) traceFault(rank int, kind FaultKind, at float64) {
	if tr := w.config.Trace; tr != nil {
		tr.RecordEventAttrs(rank, kind.String(), at,
			map[string]string{"kind": kind.String(), "rank": strconv.Itoa(rank)})
	}
}

// liveCount counts ranks that have not crashed.
func (w *World) liveCount() int {
	live := w.n
	for _, c := range w.crashed {
		if c {
			live--
		}
	}
	return live
}

// maybeCompleteCollective finishes an in-progress collective when
// every live rank has already joined — the path a crash takes so survivors
// are not stranded waiting for the dead.
func (w *World) maybeCompleteCollective() {
	if c := w.coll; c != nil && c.count >= w.liveCount() {
		w.completeCollective(c)
	}
}

// completeCollective computes the release time over LIVE participants
// and readies every rank parked in c.
func (w *World) completeCollective(c *collective) {
	maxClock := 0.0
	for i, rk := range w.ranks {
		if w.crashed[i] {
			continue
		}
		if t := rk.clock.Now(); t > maxClock {
			maxClock = t
		}
	}
	c.releaseAt = c.releaseFn(c.datas, maxClock)
	w.coll = nil
	for i := 0; i < w.n; i++ {
		if w.states[i] == stateBlockedColl && w.ranks[i].coll == c {
			w.states[i] = stateReady
		}
	}
	w.emitCollectiveFlows(c)
}

// emitCollectiveFlows reports the causal edges of one completed
// collective: each participant's entry flows INTO the fold site (the
// last-arriving live rank, ties to the lowest id — the rank whose entry
// clock determined the release), and the fold site flows back OUT to each
// participant's resume point at releaseAt. Emission never touches any
// clock.
func (w *World) emitCollectiveFlows(c *collective) {
	tr := w.config.Trace
	if tr == nil {
		return
	}
	releaser := -1
	for i := 0; i < w.n; i++ {
		if !c.joined[i] || w.crashed[i] {
			continue
		}
		if releaser < 0 || c.entries[i] > c.entries[releaser] {
			releaser = i
		}
	}
	if releaser < 0 {
		return
	}
	for i := 0; i < w.n; i++ {
		if !c.joined[i] || w.crashed[i] || i == releaser {
			continue
		}
		w.seq++
		tr.RecordFlow(trace.Flow{
			Kind:   trace.FlowContrib,
			Op:     c.op,
			ID:     w.seq,
			Batch:  c.batches[i],
			Src:    i,
			Dst:    releaser,
			Bytes:  len(c.datas[i]),
			SendAt: c.entries[i],
			RecvAt: c.releaseAt,
		})
		w.seq++
		tr.RecordFlow(trace.Flow{
			Kind:   trace.FlowRelease,
			Op:     c.op,
			ID:     w.seq,
			Batch:  c.batches[releaser],
			Src:    releaser,
			Dst:    i,
			Bytes:  0,
			SendAt: c.entries[releaser],
			RecvAt: c.releaseAt,
		})
	}
}

// Failed reports whether the given rank has crashed. This is the simulated
// failure detector's ground truth: detection protocols use timeouts to
// decide WHEN to ask, but the answer itself is never wrong — the caller
// parks first, so every crash earlier than its clock has already fired.
func (r *Rank) Failed(rank int) bool {
	r.block(stateReady)
	return r.world.dead(rank)
}

// dead reports whether rank names a crashed rank (AnySource names none).
func (w *World) dead(rank int) bool {
	return rank >= 0 && rank < w.n && w.crashed[rank]
}

// ID returns the rank number (0-based).
//
//lint:rank-identity
func (r *Rank) ID() int { return r.id }

// Metrics exposes the world's telemetry registry (nil when the run is not
// instrumented; the registry's instruments are nil-safe, so callers chain
// r.Metrics().Counter(...).Inc() unconditionally).
func (r *Rank) Metrics() *metrics.Registry { return r.world.config.Metrics }

// SetTraceBatch sets the rank's query-batch trace context (-1 clears it).
// Subsequent sends and collective entries are stamped with it; delivery of
// a stamped envelope propagates the context to the receiver. Purely
// observational: never advances any clock.
func (r *Rank) SetTraceBatch(batch int) { r.traceBatch = batch }

// TraceBatch returns the rank's current query-batch trace context (-1 =
// none) — either set locally or adopted from the last stamped delivery.
//
//lint:trace-context
func (r *Rank) TraceBatch() int { return r.traceBatch }

// flowOp names a message tag for flow edges: protocol tags keep their
// number, the shuffle and tree-collective tag spaces collapse.
func flowOp(tag int) string {
	if tag >= ShuffleTagBase {
		return "shuffle"
	}
	if tag >= CollTagBase {
		return "coll"
	}
	return fmt.Sprintf("tag%02d", tag)
}

// deliverFlow adopts the envelope's trace context and reports the causal
// edge for one delivered message. Called from the receiver's goroutine
// after the delivery clock charges.
//
// Adoption is monotone: a delivered envelope only advances the receiver's
// batch context, never rewinds it. Batch ids are assigned in admission
// order, so in a stream a late-arriving batch-N message (a straggler
// worker's results, a retransmitted selection) delivered after the rank
// moved on to batch N+1 must not drag the context backward — that would
// stamp every subsequent send from this rank with the stale id. The flow
// EDGE below still reports the envelope's own batch, so per-batch flow
// splits stay exact.
func (r *Rank) deliverFlow(m message) {
	if m.batch > r.traceBatch {
		r.traceBatch = m.batch
	}
	tr := r.world.config.Trace
	if tr == nil {
		return
	}
	tr.RecordFlow(trace.Flow{
		Kind:   trace.FlowMsg,
		Op:     flowOp(m.tag),
		ID:     m.seq,
		Batch:  m.batch,
		Src:    m.src,
		Dst:    r.id,
		Bytes:  len(m.data),
		SendAt: m.sendAt,
		RecvAt: r.clock.Now(),
	})
}

// tagSeries maps a message tag to its metric series stem. Protocol tags
// are small engine constants and keep their number; the collective-I/O
// shuffle space collapses into one series (internal/mpiio does its own
// finer accounting), and the tree-collective space into another (the tree
// code books per-level series itself).
func tagSeries(tag int) string {
	if tag >= ShuffleTagBase {
		return "mpi.send.shuffle"
	}
	if tag >= CollTagBase {
		return "mpi.send.collective"
	}
	return fmt.Sprintf("mpi.send.tag%02d", tag)
}

// recordSend books one outgoing message in the telemetry registry.
func (r *Rank) recordSend(tag int, size int64) {
	reg := r.world.config.Metrics
	if reg == nil {
		return
	}
	series := tagSeries(tag)
	reg.Counter(series+".msgs", r.id).Inc()
	reg.Counter(series+".bytes", r.id).Add(size)
	reg.Histogram("mpi.msg_bytes", r.id, metrics.SizeBuckets()).Observe(float64(size))
}

// Size returns the world size.
func (r *Rank) Size() int { return r.world.n }

// Clock exposes the rank's virtual clock.
func (r *Rank) Clock() *simtime.Clock { return r.clock }

// Cost exposes the world's cost model.
func (r *Rank) Cost() simtime.CostModel { return r.world.cost }

// SetPhase switches the phase bucket charged for subsequent time.
func (r *Rank) SetPhase(phase string) { r.clock.SetPhase(phase) }

// Advance charges d virtual seconds of local work.
//
//lint:clock d
func (r *Rank) Advance(d float64) {
	r.maybeCrash()
	r.clock.Advance(d)
}

// Compute charges work units at the model's search-unit cost, scaled by
// the rank's node-speed factor and any active degrade fault.
//
//lint:clock units
func (r *Rank) Compute(units int64) {
	r.maybeCrash()
	r.clock.Advance(float64(units) * r.world.cost.SearchUnitCost * r.effSpeed())
}

// effSpeed is the rank's current compute-cost factor: the configured node
// speed, multiplied by the degrade slowdown once its fault time passes.
func (r *Rank) effSpeed() float64 {
	w := r.world
	s := w.config.speed(r.id)
	if r.clock.Now() >= w.degradeAt[r.id] {
		if !r.degradeFired {
			r.degradeFired = true
			w.traceFault(r.id, FaultDegrade, r.clock.Now())
		}
		s *= w.degradeSlow[r.id]
	}
	return s
}

// FormatCost charges the per-byte report-rendering cost for n bytes.
//
//lint:clock n
func (r *Rank) FormatCost(n int64) {
	r.clock.Advance(float64(n) * r.world.cost.FormatByteCost)
}

// MemCopy charges an in-memory copy of n bytes.
//
//lint:clock n
func (r *Rank) MemCopy(n int64) {
	r.clock.Advance(float64(n) / r.world.cost.MemCopyBandwidth)
}

// IO charges a storage access of n bytes against fs, including queueing
// behind other ranks' concurrent accesses.
//
//lint:clock n
func (r *Rank) IO(fs *vfs.FS, n int64) {
	r.maybeCrash()
	r.block(stateReady)
	end := fs.Access(r.clock.Now(), n)
	r.clock.AdvanceTo(end)
}

// IOHandle is an in-flight asynchronous storage access created by StartIO
// and settled by Wait.
type IOHandle struct {
	start, end float64
	done       bool
}

// StartIO begins an asynchronous storage access: the operation books a
// storage channel from the rank's current virtual time — contention,
// queueing, and transient-fault backoff resolve exactly as for IO — but the
// rank's clock does not advance. The rank may keep computing (or start more
// accesses) and settle the bill with Wait, paying max(io, compute) instead
// of their sum. Deterministic: issue order follows the discrete-event
// schedule, so the booked completion time is reproducible.
//
//lint:clock n
func (r *Rank) StartIO(fs *vfs.FS, n int64) *IOHandle {
	r.maybeCrash()
	r.block(stateReady)
	start := r.clock.Now()
	end := fs.Access(start, n)
	r.Metrics().Counter("mpi.async_io_started", r.id).Inc()
	return &IOHandle{start: start, end: end}
}

// Wait completes an asynchronous access: if the operation is still running,
// the clock advances to its completion time, charging the current phase;
// if it already finished while the rank was doing other work, Wait is free.
// The hidden/exposed split of every operation's duration is recorded as the
// overlap-effectiveness metrics mpi.async_io_hidden_s / _exposed_s.
// Waiting on a nil or already-settled handle is a no-op.
func (r *Rank) Wait(h *IOHandle) {
	r.maybeCrash()
	if h == nil || h.done {
		return
	}
	h.done = true
	hidden, exposed := simtime.OverlapSplit(h.start, h.end, r.clock.Now())
	r.clock.AdvanceTo(h.end)
	reg := r.Metrics()
	reg.Gauge("mpi.async_io_hidden_s", r.id).Add(hidden)
	reg.Gauge("mpi.async_io_exposed_s", r.id).Add(exposed)
}

// FaultsScheduled reports whether this world's configuration schedules any
// faults. Protocols use it to choose between plain blocking receives, which
// a dead sender would deadlock, and crash-aware ones (RecvCrashAware, the
// flat collectives), which learn of a crash at the crash time.
func (r *Rank) FaultsScheduled() bool { return len(r.world.config.Faults) > 0 }

// Send transmits data to dst with the given tag. It is buffered and does
// not block. The payload is NOT copied; callers must not mutate it after
// sending.
//
//lint:sends tag
//lint:payload data
func (r *Rank) Send(dst, tag int, data []byte) {
	w := r.world
	if dst < 0 || dst >= w.n {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	r.maybeCrash()
	w.config.Comm.add(r.id, tag, int64(len(data)))
	r.recordSend(tag, int64(len(data)))
	r.clock.Advance(float64(len(data)) / w.cost.NetBandwidth)
	if w.crashed[dst] {
		// The destination is dead: the sender still pays its NIC
		// occupancy (charged above), but the bytes land nowhere.
		return
	}
	w.seq++
	w.inbox[dst] = append(w.inbox[dst], message{
		src:     r.id,
		tag:     tag,
		data:    data,
		arrival: r.clock.Now() + w.cost.NetLatency,
		seq:     w.seq,
		batch:   r.traceBatch,
		sendAt:  r.clock.Now(),
	})
}

// Recv blocks until a message matching (src, tag) arrives and returns its
// payload, source, and tag. Use AnySource / AnyTag as wildcards.
//
//lint:receives tag
func (r *Rank) Recv(src, tag int) (data []byte, from, gotTag int) {
	r.maybeCrash()
	w := r.world
	w.recvSrc[r.id], w.recvTag[r.id] = src, tag
	// The scheduler resumes a deadline-free receive only at a queued match.
	r.block(stateBlockedRecv)
	m := r.deliver(w.earliestMatch(r.id))
	return m.data, m.src, m.tag
}

// RecvTimeout is Recv with a virtual-time deadline — the primitive failure
// detection is built from. It returns:
//
//   - (data, from, tag, nil) when a matching message can be delivered no
//     later than now+timeout;
//   - ErrRankFailed (wrapped, with the crash time) when src is a specific
//     rank that has crashed and no deliverable match is queued;
//   - ErrTimeout when the deadline passes first — the clock advances to
//     the deadline, so repeated polling makes forward progress.
//
// Determinism: the wake-up time is min(match delivery, deadline, the
// source's crash), resolved by the same earliest-event scheduler as
// everything else.
//
//lint:receives tag
//lint:clock timeout
func (r *Rank) RecvTimeout(src, tag int, timeout float64) (data []byte, from, gotTag int, err error) {
	r.maybeCrash()
	w := r.world
	if timeout < 0 || math.IsNaN(timeout) {
		timeout = 0
	}
	entered := r.clock.Now()
	deadline := entered + timeout
	w.recvSrc[r.id], w.recvTag[r.id] = src, tag
	w.recvDeadline[r.id] = deadline
	r.block(stateBlockedRecv)
	w.recvDeadline[r.id] = math.Inf(1)
	if k := w.earliestMatch(r.id); k >= 0 && w.inbox[r.id][k].arrival <= deadline {
		m := r.deliver(k)
		return m.data, m.src, m.tag, nil
	}
	if w.dead(src) {
		at := w.crashTime[src]
		r.clock.AdvanceTo(at) // no-op when the crash is in our past
		w.config.Metrics.Counter("mpi.recv_failed_peer", r.id).Inc()
		return nil, 0, 0, fmt.Errorf("mpi: recv from rank %d: %w (crashed at t=%.6f)", src, ErrRankFailed, at)
	}
	// Resumed with neither a deliverable match nor a dead source: the
	// deadline was the earliest event.
	r.clock.AdvanceTo(deadline)
	if reg := w.config.Metrics; reg != nil {
		reg.Counter("mpi.recv_timeouts", r.id).Inc()
		reg.Gauge("mpi.recv_timeout_wait_s", r.id).Add(deadline - entered)
	}
	return nil, 0, 0, ErrTimeout
}

// RecvCrashAware is Recv from a named source that cannot deadlock on a dead
// one: it polls RecvTimeout every FaultDetectInterval until the message
// arrives or src is known to have crashed (ErrRankFailed, wrapped). A
// message that arrives within any polling window still completes at exactly
// its arrival time, so where no source dies the schedule is the blocking
// receive's; callers decide when a crash is possible and what it means.
//
//lint:receives tag
func (r *Rank) RecvCrashAware(src, tag int) ([]byte, error) {
	for {
		data, _, _, err := r.RecvTimeout(src, tag, r.world.cost.FaultDetectInterval())
		if err == nil || errors.Is(err, ErrRankFailed) {
			return data, err
		}
		// Timed out: the source is alive but not ready yet; poll again.
	}
}

// Once returns the value every participant of the collective r last left
// derives from its gathered payloads: the I/O plan from a bounds AllGather,
// the decoded job from its Bcast. A real MPI process computes it from its own
// copy of the bytes; runCollective hands every rank the same slice, so the
// first participant to ask runs build and the rest read its result. build
// must be a function of the payloads alone, never of the asking rank, and its
// result is shared read-only. Ask directly after the Bcast or AllGather
// returns: the value lives and dies with that collective's record, so it
// cannot cross a membership change, a batch or a run. series names the
// host-side built/reused counters, booked under rank 0 because which rank
// asks first is a scheduling artifact.
func Once[T any](r *Rank, series string, build func() T) T {
	c := r.coll
	if c == nil {
		panic(fmt.Sprintf("mpi: rank %d asked Once before its first collective", r.id))
	}
	reg := r.world.config.Metrics
	if c.hasDerived {
		if reg != nil {
			reg.Counter(series+"_reuses", 0).Inc()
		}
		return c.derived.(T)
	}
	v := build()
	c.derived, c.hasDerived = v, true
	if reg != nil {
		reg.Counter(series+"_builds", 0).Inc()
	}
	return v
}

// logSteps returns ceil(log2(n)), the tree depth collective latencies use.
// A single rank (or none) needs no tree and pays no latency.
func logSteps(n int) float64 {
	if n <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(n)))
}

// runCollective synchronizes all LIVE ranks; release receives the gathered
// per-rank payloads and the maximum entry clock, and returns the common
// release time. Every rank returns the shared data slice. Crashed ranks
// are not waited for — their datas entries stay nil (consumers of gathered
// payloads must tolerate that under fault schedules) — and a participant
// that crashes at the door completes the collective for the survivors.
func (r *Rank) runCollective(op string, data []byte, release func(datas [][]byte, maxClock float64) float64) [][]byte {
	r.maybeCrash()
	w := r.world
	w.config.Comm.addCollective(r.id, int64(len(data)))
	if reg := w.config.Metrics; reg != nil {
		reg.Counter("mpi.collective."+op, r.id).Inc()
		// Per-op byte series alongside the undifferentiated total, so
		// experiments can attribute collective volume to gather vs bcast
		// vs reduce individually.
		reg.Counter("mpi.collective."+op+".bytes", r.id).Add(int64(len(data)))
		reg.Counter("mpi.collective.bytes", r.id).Add(int64(len(data)))
	}
	c := w.coll
	if c == nil {
		c = &collective{
			op:        op,
			datas:     make([][]byte, w.n),
			releaseFn: release,
			entries:   make([]float64, w.n),
			batches:   make([]int, w.n),
			joined:    make([]bool, w.n),
		}
		w.coll = c
	}
	if c.op != op {
		panic(fmt.Sprintf("mpi: rank %d entered collective %q while %q in progress", r.id, op, c.op))
	}
	c.datas[r.id] = data
	c.entries[r.id] = r.clock.Now()
	c.batches[r.id] = r.traceBatch
	c.joined[r.id] = true
	c.count++
	r.coll = c
	if c.count < w.liveCount() {
		r.block(stateBlockedColl)
	} else {
		// Last live participant: compute release time and free everyone.
		w.completeCollective(c)
	}
	r.clock.AdvanceTo(c.releaseAt)
	return c.datas
}

// Barrier synchronizes all ranks; everyone leaves at the latest entry time
// plus a tree-latency term.
//
//lint:collective
func (r *Rank) Barrier() {
	w := r.world
	r.runCollective("barrier", nil, func(_ [][]byte, maxClock float64) float64 {
		return maxClock + w.cost.NetLatency*logSteps(w.n)
	})
}

// Bcast distributes root's payload to every rank and returns it.
//
//lint:collective
//lint:payload data
func (r *Rank) Bcast(root int, data []byte) []byte {
	w := r.world
	var payload []byte
	if r.id == root {
		payload = data
	}
	datas := r.runCollective("bcast", payload, func(datas [][]byte, maxClock float64) float64 {
		size := float64(len(datas[root]))
		return maxClock + w.cost.NetLatency*logSteps(w.n) + size/w.cost.NetBandwidth
	})
	return datas[root]
}

// AllGather collects every rank's payload everywhere.
//
//lint:collective
//lint:payload data
func (r *Rank) AllGather(data []byte) [][]byte {
	w := r.world
	return r.runCollective("allgather", data, func(datas [][]byte, maxClock float64) float64 {
		var total int64
		for _, d := range datas {
			total += int64(len(d))
		}
		return maxClock + w.cost.NetLatency*logSteps(w.n) + float64(total)/w.cost.NetBandwidth
	})
}
