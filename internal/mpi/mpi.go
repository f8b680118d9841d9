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
//     a RecvTimeout awaits if that crash is seen at the deadline, when that
//     comes first — and ineligible while none of those exists;
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
// # Faults
//
// Whether a crash can be seen is decided here, once. Where no fault is
// scheduled, Failed is false without a scheduling point, DetectInterval is
// +Inf — so RecvCrashAware, and RecvTimeout at that interval, block like Recv
// — and the tree collectives run hop by hop, one bare payload per edge.
// Where one is, detectors poll every FaultDetectInterval and TreeReduce and
// TreeBcast go flat (one AllGather, one Bcast) over the survivors, so their
// members must be every live rank. The engines write each detection loop
// once, for every world. A crash is an event at its virtual time: Failed (at
// the caller's clock) and RecvTimeout (at its deadline) see it only after it
// in the scheduler's order — time, then rank id — never because the victim
// ran first on the host, so a victim may park and compute Aside like any rank.
// Only a crash strands a message: a fault-free world that finishes with one
// still queued fails, naming its destination, source and tag.
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
	"math/bits"
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

type message struct {
	src, tag int
	data     []byte
	arrival  float64
	seq      int64
	// Trace context, stamped only while a collector is attached: the
	// sender's query-batch id and the virtual time the payload left its NIC.
	// They ride outside data, and untraced they stay zero, so a leak into
	// bytes or time shows in any traced-vs-untraced comparison.
	batch  int
	sendAt float64
}

type collective struct {
	op        string
	datas     [][]byte
	count     int
	releaseFn func(datas [][]byte, maxClock float64) float64
	releaseAt float64
	// Per-rank causal context for flow emission: entry clock, trace batch
	// (nil untraced), and whether the rank joined at all (crashed ranks never
	// do).
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

// World is the shared state of one simulated MPI job. Everything in it and
// in its ranks' records belongs to the token holder.
type World struct {
	n         int
	cost      simtime.CostModel
	config    Config
	ranks     []Rank
	coll      *collective
	topo      treeTopo // the last tree layout built (layout)
	seq       int64
	doneCount int
	aborted   bool
	abortMsg  string
	firstErr  error

	// Host-side accounting of Aside: ranks computing without the token now,
	// and the most at once.
	away, awayPeak int
}

// Rank is one simulated MPI process: its clock, its scheduler state, its
// fault schedule and the traffic it sent, in one record.
type Rank struct {
	id    int
	world *World
	clock *simtime.Clock
	speed float64 // node-speed factor (Config.Speeds)
	// wake carries the scheduler token to this rank. Capacity one: the
	// holder deposits the token without waiting for the receiver to park,
	// and may hand it to itself.
	wake             chan struct{}
	state            rankState
	recvSrc, recvTag int     // when blocked on recv
	recvDeadline     float64 // virtual-time deadline, +Inf for plain Recv
	inbox            []message
	coll             *collective // the collective this rank last joined
	sent             Traffic

	// Fault plane: the schedule (fixed at setup, +Inf = never) and outcome.
	crashAt, degradeAt, degradeSlow float64
	crashTime                       float64 // actual crash time (first op at/after crashAt)
	crashed                         bool
	degradeFired                    bool // the degrade is already marked on the trace
	// traceBatch is the rank's current query-batch trace context (-1 =
	// none), kept only while a collector is attached. Stamped on every
	// outgoing envelope; adopted from incoming envelopes at delivery, so
	// context propagates causally across ranks.
	traceBatch int
}

type abortPanic struct{ msg string }

// Config bundles a cost model with optional per-rank heterogeneity.
type Config struct {
	Cost simtime.CostModel
	// Speeds scales each rank's compute cost: 1 is the baseline node, 2 runs
	// compute twice as slowly. A nil or short slice means 1 for the ranks it
	// misses; zero, negative, non-finite and surplus factors are rejected.
	// Models the heterogeneous clusters the paper's §5 load-balancing
	// discussion targets.
	Speeds []float64
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
// synchronization and aggregation, not merging protocol — so they are
// booked in the collective bucket even though they travel as ordinary
// sends.
const CollTagBase = 1 << 19

// Traffic is what one rank sent, split into protocol traffic, collective-I/O
// shuffle traffic, and collective-operation payloads (Barrier/Bcast/AllGather
// contributions, plus the point-to-point hops of the tree collectives). The
// split keeps the paper's §3.2 protocol-volume metric clean: collective
// synchronization is neither merging protocol nor shuffle data.
type Traffic struct {
	Protocol, Shuffle, Collective, Messages int64
}

// TotalTraffic sums what the ranks sent.
func TotalTraffic(sent []Traffic) (total Traffic) {
	for _, t := range sent {
		total.Protocol += t.Protocol
		total.Shuffle += t.Shuffle
		total.Collective += t.Collective
		total.Messages += t.Messages
	}
	return total
}

// tagSpace is the region of the tag space a message belongs to.
type tagSpace uint8

const (
	protocolSpace tagSpace = iota
	collSpace
	shuffleSpace
)

// tagClass is the package's one tag rule: the space a tag belongs to.
func tagClass(tag int) tagSpace {
	switch {
	case tag >= ShuffleTagBase:
		return shuffleSpace
	case tag >= CollTagBase:
		return collSpace
	}
	return protocolSpace
}

// book counts one message of n bytes sent in space sp.
func (t *Traffic) book(sp tagSpace, n int64) {
	switch sp {
	case shuffleSpace:
		t.Shuffle += n
	case collSpace:
		t.Collective += n
	default:
		t.Protocol += n
	}
	t.Messages++
}

// The names of each space in flow ops and in the mpi.send.* series.
// Protocol tags are small engine constants and keep their number in both;
// the shuffle space collapses into one name (internal/mpiio does its own
// finer accounting), and the tree-collective space into another (the tree
// code books per-level series itself).
var (
	flowOps    = [...]string{protocolSpace: "tag", collSpace: "coll", shuffleSpace: "shuffle"}
	sendSeries = [...]string{protocolSpace: "mpi.send.tag", collSpace: "mpi.send.collective", shuffleSpace: "mpi.send.shuffle"}
)

// tagName names tag from one of those tables.
func tagName(names *[3]string, tag int) string {
	sp := tagClass(tag)
	if sp == protocolSpace {
		return fmt.Sprintf("%s%02d", names[sp], tag)
	}
	return names[sp]
}

// Run executes body on n ranks and returns their clocks. It returns an
// error if any body returns an error, panics, or the job deadlocks.
func Run(n int, cost simtime.CostModel, body func(*Rank) error) ([]*simtime.Clock, error) {
	clocks, _, err := RunConfig(n, Config{Cost: cost}, body)
	return clocks, err
}

// RunConfig is Run with per-rank heterogeneity, faults and telemetry. It also
// returns what each rank sent — the volume behind the paper's §3.2
// message-volume-reduction claim.
func RunConfig(n int, cfg Config, body func(*Rank) error) ([]*simtime.Clock, []Traffic, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("mpi: world size %d < 1", n)
	}
	if err := cfg.Cost.Validate(); err != nil {
		return nil, nil, err
	}
	if len(cfg.Speeds) > n { // a factor for a rank that does not exist would be ignored
		return nil, nil, fmt.Errorf("mpi: %d speed factors for world size %d", len(cfg.Speeds), n)
	}
	w := &World{n: n, cost: cfg.Cost, config: cfg, ranks: make([]Rank, n)}
	inf := math.Inf(1)
	for i := range w.ranks {
		speed := 1.0
		if i < len(cfg.Speeds) {
			speed = cfg.Speeds[i]
			if speed <= 0 || math.IsNaN(speed) || math.IsInf(speed, 0) {
				return nil, nil, fmt.Errorf("mpi: zero, negative or non-finite speed factor %g for rank %d", speed, i)
			}
		}
		w.ranks[i] = Rank{id: i, world: w, clock: simtime.NewClock(), speed: speed,
			wake: make(chan struct{}, 1), recvDeadline: inf,
			crashAt: inf, degradeAt: inf, degradeSlow: 1, crashTime: inf, traceBatch: -1}
	}
	for _, f := range cfg.Faults {
		if f.Rank < 0 || f.Rank >= n {
			return nil, nil, fmt.Errorf("mpi: fault targets invalid rank %d (world size %d)", f.Rank, n)
		}
		// A time that can never come would still arm every recovery protocol.
		if f.At < 0 || math.IsNaN(f.At) || math.IsInf(f.At, 0) {
			return nil, nil, fmt.Errorf("mpi: fault for rank %d has invalid time %g", f.Rank, f.At)
		}
		r := &w.ranks[f.Rank]
		switch f.Kind {
		case FaultCrash:
			if !math.IsInf(r.crashAt, 1) {
				return nil, nil, fmt.Errorf("mpi: rank %d has more than one scheduled crash", f.Rank)
			}
			r.crashAt = f.At
		case FaultDegrade:
			if f.Slow <= 0 {
				return nil, nil, fmt.Errorf("mpi: degrade for rank %d needs Slow > 0, got %g", f.Rank, f.Slow)
			}
			if math.IsNaN(f.Slow) || math.IsInf(f.Slow, 0) {
				return nil, nil, fmt.Errorf("mpi: degrade for rank %d has non-finite Slow %g", f.Rank, f.Slow)
			}
			if !math.IsInf(r.degradeAt, 1) {
				return nil, nil, fmt.Errorf("mpi: rank %d has more than one scheduled degrade", f.Rank)
			}
			r.degradeAt, r.degradeSlow = f.At, f.Slow
		default:
			return nil, nil, fmt.Errorf("mpi: unknown fault kind %d for rank %d", int(f.Kind), f.Rank)
		}
	}
	clocks := make([]*simtime.Clock, n)
	var wg sync.WaitGroup
	for i := range w.ranks {
		r := &w.ranks[i]
		if cfg.Trace != nil {
			r.clock.SetObserver(cfg.Trace.Observer(i))
		}
		clocks[i] = r.clock
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
				w.finishRank(r)
			}()
			r.awaitToken()
			if err := body(r); err != nil {
				w.fail(fmt.Errorf("mpi: rank %d: %w", r.id, err))
			}
		}(r)
	}
	// Every rank starts parked in the zero (ready) state and Run holds the
	// token, so the first grant needs no handshake.
	w.schedule()
	wg.Wait()
	sent := make([]Traffic, n)
	for i := range w.ranks {
		sent[i] = w.ranks[i].sent
	}
	cfg.Metrics.Counter("mpi.aside_peak", 0).Add(int64(w.awayPeak))
	if w.firstErr != nil {
		return clocks, sent, w.firstErr
	}
	if w.aborted {
		return clocks, sent, fmt.Errorf("mpi: %s", w.abortMsg)
	}
	// Where no rank can crash, every message sent is received: one still
	// queued is a send whose receive was dropped or given another tag.
	for dst := range w.ranks {
		if q := w.ranks[dst].inbox; len(q) > 0 && len(cfg.Faults) == 0 {
			return clocks, sent, fmt.Errorf("mpi: %d message(s) to rank %d never received, the first from rank %d tag %d",
				len(q), dst, q[0].src, q[0].tag)
		}
	}
	return clocks, sent, nil
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
	<-r.wake
	if w.aborted {
		panic(abortPanic{w.abortMsg})
	}
	r.state = stateRunning
}

// finishRank marks the rank done and hands the token onward.
func (w *World) finishRank(r *Rank) {
	r.state = stateDone
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
			if w.ranks[i].state != stateDone {
				next = i
			}
		}
	}
	if next >= 0 {
		w.ranks[next].wake <- struct{}{}
	}
}

// earliestEligible returns the rank whose next event is earliest in virtual
// time (ties to the lowest id), or -1 when no rank can run.
func (w *World) earliestEligible() int {
	bestRank := -1
	bestTime := math.Inf(1)
	for i := range w.ranks {
		r := &w.ranks[i]
		var t float64
		switch r.state {
		case stateReady:
			t = r.clock.Now()
		case stateBlockedRecv:
			// A receive with a deadline is always eligible: it wakes at the
			// earliest of the match, the timeout and — so that ErrRankFailed
			// is reported at the time it became true — a source crash it sees.
			dl := r.recvDeadline
			t = dl
			if k := r.earliestMatch(); k >= 0 {
				t = math.Min(t, r.inbox[k].arrival)
			}
			if src := r.recvSrc; !math.IsInf(dl, 1) && w.crashSeen(src, dl, i) {
				t = math.Min(t, w.ranks[src].crashTime)
			}
			if math.IsInf(t, 1) {
				continue
			}
			t = math.Max(t, r.clock.Now())
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
	for i := range w.ranks {
		if r := &w.ranks[i]; r.crashed {
			if b.Len() > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "rank %d crashed at t=%.6f", i, r.crashTime)
		}
	}
	return b.String()
}

func (w *World) stateDump() string {
	var b strings.Builder
	for i := range w.ranks {
		r := &w.ranks[i]
		fmt.Fprintf(&b, "rank %d %s", i, r.state)
		if c := r.coll; r.state == stateBlockedColl {
			// The op and how many live ranks joined name the collective the
			// others never reached.
			fmt.Fprintf(&b, " %s %d/%d", c.op, c.count, w.liveCount())
		}
		fmt.Fprintf(&b, " t=%.3f", r.clock.Now())
		if r.state == stateBlockedRecv {
			fmt.Fprintf(&b, " (waiting src=%d tag=%d, %d queued)", r.recvSrc, r.recvTag, len(r.inbox))
		}
		b.WriteString("; ")
	}
	return b.String()
}

// earliestMatch returns the inbox index of the message the rank's pending
// receive takes next, or -1 when none is queued: the smallest arrival, ties
// to the lowest source. One source's messages are queued in send order with
// non-decreasing arrivals, so keeping the first of equals orders them too —
// and none of it depends on the host order in which senders ran.
func (r *Rank) earliestMatch() int {
	src, tag, q := r.recvSrc, r.recvTag, r.inbox
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
	m := r.inbox[k]
	r.inbox = append(r.inbox[:k], r.inbox[k+1:]...)
	r.clock.AdvanceTo(m.arrival)
	r.clock.Advance(float64(len(m.data)) / r.world.cost.NetBandwidth)
	r.deliverFlow(m)
	return m
}

// block parks the calling rank (the token holder) in the given state, hands
// the token on, and returns when the rank is granted it again.
func (r *Rank) block(s rankState) {
	r.state = s
	r.world.schedule()
	r.awaitToken()
}

// Aside runs f — host work that touches no world state and no clock, such as
// the search kernel — without the scheduler token. The rank parks ready at
// its own clock, which is one more scheduling point and so moves no clock;
// every rank whose event is earlier runs while f does, and if none is, the
// token waits in the rank's wake channel until f returns. Aside is no MPI
// operation and fires no crash; a rank whose crash is due parks like any
// other, since nobody sees a crash before its time (crashSeen).
func (r *Rank) Aside(f func()) {
	w := r.world
	w.away++
	w.awayPeak = max(w.awayPeak, w.away)
	w.config.Metrics.Counter("mpi.asides", 0).Inc()
	r.state = stateReady
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
	now := r.clock.Now()
	if now < r.crashAt {
		return
	}
	if r.crashed { // already unwinding
		panic(crashPanic{r.id})
	}
	r.crashed, r.crashTime = true, now
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
	for i := range w.ranks {
		if w.ranks[i].crashed {
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
	for i := range w.ranks {
		r := &w.ranks[i]
		if t := r.clock.Now(); !r.crashed && t > maxClock {
			maxClock = t
		}
	}
	c.releaseAt = c.releaseFn(c.datas, maxClock)
	w.coll = nil
	for i := range w.ranks {
		if r := &w.ranks[i]; r.state == stateBlockedColl && r.coll == c {
			r.state = stateReady
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
		if !c.joined[i] || w.ranks[i].crashed {
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
		if !c.joined[i] || w.ranks[i].crashed || i == releaser {
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

// Failed reports whether the given rank has crashed, seen at the caller's
// clock. This is the simulated failure detector's ground truth: detection
// protocols use timeouts to decide WHEN to ask, but the answer itself is never
// wrong — the caller parks first, so every crash it can see has fired.
// With no fault scheduled nobody can crash: false, without parking.
func (r *Rank) Failed(rank int) bool {
	if !r.faultsScheduled() {
		return false
	}
	r.block(stateReady)
	return r.world.crashSeen(rank, r.clock.Now(), r.id)
}

// crashSeen reports whether asker, at virtual time t, sees rank v crashed: the
// crash has fired and (crash time, v) precedes (t, asker) in the scheduler's
// order, however early it fired on the host. AnySource names none.
func (w *World) crashSeen(v int, t float64, asker int) bool {
	return v >= 0 && v < w.n && w.ranks[v].crashed &&
		(w.ranks[v].crashTime < t || w.ranks[v].crashTime == t && v < asker)
}

// ID returns the rank number (0-based).
func (r *Rank) ID() int { return r.id }

// Metrics exposes the world's telemetry registry (nil when the run is not
// instrumented; the registry's instruments are nil-safe, so callers chain
// r.Metrics().Counter(...).Inc() unconditionally).
func (r *Rank) Metrics() *metrics.Registry { return r.world.config.Metrics }

// SetTraceBatch sets the rank's query-batch trace context (-1 clears it).
// Subsequent sends and collective entries are stamped with it; delivery of
// a stamped envelope propagates the context to the receiver. Untraced it
// does nothing: the context exists only for the collector, and nothing
// outside this package can read it.
func (r *Rank) SetTraceBatch(batch int) {
	if r.world.config.Trace != nil {
		r.traceBatch = batch
	}
}

// deliverFlow adopts the envelope's trace context and reports the causal
// edge for one delivered message; untraced it does neither. Called from the
// receiver's goroutine after the delivery clock charges.
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
	tr := r.world.config.Trace
	if tr == nil {
		return
	}
	if m.batch > r.traceBatch {
		r.traceBatch = m.batch
	}
	tr.RecordFlow(trace.Flow{
		Kind:   trace.FlowMsg,
		Op:     tagName(&flowOps, m.tag),
		ID:     m.seq,
		Batch:  m.batch,
		Src:    m.src,
		Dst:    r.id,
		Bytes:  len(m.data),
		SendAt: m.sendAt,
		RecvAt: r.clock.Now(),
	})
}

// recordSend books one outgoing message in the telemetry registry.
func (r *Rank) recordSend(tag int, size int64) {
	reg := r.world.config.Metrics
	if reg == nil {
		return
	}
	series := tagName(&sendSeries, tag)
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
func (r *Rank) SetPhase(phase simtime.Phase) { r.clock.SetPhase(phase) }

// Advance charges d virtual seconds of local work.
//
//lint:clock
func (r *Rank) Advance(d float64) {
	r.maybeCrash()
	r.clock.Advance(d)
}

// Compute charges work units at the model's search-unit cost, scaled by
// the rank's node-speed factor and any active degrade fault.
//
//lint:clock
func (r *Rank) Compute(units int64) {
	r.maybeCrash()
	r.clock.Advance(float64(units) * r.world.cost.SearchUnitCost * r.effSpeed())
}

// effSpeed is the rank's current compute-cost factor: the configured node
// speed, multiplied by the degrade slowdown once its fault time passes.
func (r *Rank) effSpeed() float64 {
	s := r.speed
	if r.clock.Now() >= r.degradeAt {
		if !r.degradeFired {
			r.degradeFired = true
			r.world.traceFault(r.id, FaultDegrade, r.clock.Now())
		}
		s *= r.degradeSlow
	}
	return s
}

// FormatCost charges the per-byte report-rendering cost for n bytes.
//
//lint:clock
func (r *Rank) FormatCost(n int64) {
	r.clock.Advance(float64(n) * r.world.cost.FormatByteCost)
}

// MemCopy charges an in-memory copy of n bytes.
//
//lint:clock
func (r *Rank) MemCopy(n int64) {
	r.clock.Advance(float64(n) / r.world.cost.MemCopyBandwidth)
}

// IO charges a storage access of n bytes against fs, including queueing
// behind other ranks' concurrent accesses.
//
//lint:clock
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
//lint:clock
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

// faultsScheduled is the package's one answer to "can a crash be seen?"
// (the package comment's # Faults).
func (r *Rank) faultsScheduled() bool { return len(r.world.config.Faults) > 0 }

// DetectInterval is the failure detectors' polling interval: the cost
// model's FaultDetectInterval where a fault is scheduled, +Inf where none is
// — and a RecvTimeout with an infinite deadline is a plain Recv.
func (r *Rank) DetectInterval() float64 {
	if !r.faultsScheduled() {
		return math.Inf(1)
	}
	return r.world.cost.FaultDetectInterval()
}

// Send transmits data to dst with the given tag. It is buffered and does
// not block. The payload is NOT copied; callers must not mutate it after
// sending.
//
//lint:payload
func (r *Rank) Send(dst, tag int, data []byte) {
	w := r.world
	if dst < 0 || dst >= w.n {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	r.maybeCrash()
	r.sent.book(tagClass(tag), int64(len(data)))
	r.recordSend(tag, int64(len(data)))
	r.clock.Advance(float64(len(data)) / w.cost.NetBandwidth)
	to := &w.ranks[dst]
	if to.crashed {
		// The destination is dead: the sender still pays its NIC
		// occupancy (charged above), but the bytes land nowhere.
		return
	}
	w.seq++
	m := message{src: r.id, tag: tag, data: data, arrival: r.clock.Now() + w.cost.NetLatency, seq: w.seq}
	if w.config.Trace != nil {
		m.batch, m.sendAt = r.traceBatch, r.clock.Now()
	}
	to.inbox = append(to.inbox, m)
}

// Recv blocks until a message matching (src, tag) arrives and returns its
// payload, source, and tag. Use AnySource / AnyTag as wildcards.
func (r *Rank) Recv(src, tag int) (data []byte, from, gotTag int) {
	r.maybeCrash()
	r.recvSrc, r.recvTag = src, tag
	// The scheduler resumes a deadline-free receive only at a queued match.
	r.block(stateBlockedRecv)
	m := r.deliver(r.earliestMatch())
	return m.data, m.src, m.tag
}

// RecvTimeout is Recv with a virtual-time deadline — the primitive failure
// detection is built from. It returns:
//
//   - (data, from, tag, nil) when a matching message can be delivered no
//     later than now+timeout;
//   - ErrRankFailed (wrapped, with the crash time) when src is a specific
//     rank whose crash is seen at the deadline and no match is deliverable;
//   - ErrTimeout when the deadline passes first — the clock advances to
//     the deadline, so repeated polling makes forward progress.
//
// Determinism: the wake-up time is min(match delivery, deadline, the
// source's crash), resolved by the same earliest-event scheduler as
// everything else.
//
//lint:clock
func (r *Rank) RecvTimeout(src, tag int, timeout float64) (data []byte, from, gotTag int, err error) {
	r.maybeCrash()
	w := r.world
	if timeout < 0 || math.IsNaN(timeout) {
		timeout = 0
	}
	entered := r.clock.Now()
	deadline := entered + timeout
	r.recvSrc, r.recvTag, r.recvDeadline = src, tag, deadline
	r.block(stateBlockedRecv)
	r.recvDeadline = math.Inf(1)
	if k := r.earliestMatch(); k >= 0 && r.inbox[k].arrival <= deadline {
		m := r.deliver(k)
		return m.data, m.src, m.tag, nil
	}
	if w.crashSeen(src, deadline, r.id) {
		at := w.ranks[src].crashTime
		r.clock.AdvanceTo(at) // no-op when the crash is in our past
		w.config.Metrics.Counter("mpi.recv_failed_peer", r.id).Inc()
		return nil, 0, 0, fmt.Errorf("mpi: recv from rank %d: %w (crashed at t=%.6f)", src, ErrRankFailed, at)
	}
	// Resumed with neither a deliverable match nor a crash seen by the
	// deadline: the deadline was the earliest event.
	r.clock.AdvanceTo(deadline)
	if reg := w.config.Metrics; reg != nil {
		reg.Counter("mpi.recv_timeouts", r.id).Inc()
		reg.Gauge("mpi.recv_timeout_wait_s", r.id).Add(deadline - entered)
	}
	return nil, 0, 0, ErrTimeout
}

// RecvCrashAware is Recv from a named source that cannot deadlock on a dead
// one: it polls RecvTimeout every DetectInterval until the message arrives or
// src is known to have crashed (ErrRankFailed, wrapped). A message that
// arrives within any polling window still completes at exactly its arrival
// time, so where no source dies the schedule is the blocking receive's, and
// where no fault is scheduled it is one blocking receive; callers decide what
// a crash means.
func (r *Rank) RecvCrashAware(src, tag int) ([]byte, error) {
	for {
		data, _, _, err := r.RecvTimeout(src, tag, r.DetectInterval())
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
	return float64(bits.Len(uint(n - 1)))
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
	r.sent.book(collSpace, int64(len(data)))
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
			joined:    make([]bool, w.n),
		}
		if w.config.Trace != nil {
			c.batches = make([]int, w.n)
		}
		w.coll = c
	}
	if c.op != op {
		panic(fmt.Sprintf("mpi: rank %d entered collective %q while %q in progress", r.id, op, c.op))
	}
	c.datas[r.id] = data
	c.entries[r.id] = r.clock.Now()
	if c.batches != nil {
		c.batches[r.id] = r.traceBatch
	}
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
func (r *Rank) Barrier() {
	w := r.world
	r.runCollective("barrier", nil, func(_ [][]byte, maxClock float64) float64 {
		return maxClock + float64(w.cost.NetLatency*logSteps(w.n))
	})
}

// Bcast distributes root's payload to every rank and returns it.
//
//lint:payload
func (r *Rank) Bcast(root int, data []byte) []byte {
	w := r.world
	var payload []byte
	if r.id == root {
		payload = data
	}
	datas := r.runCollective("bcast", payload, func(datas [][]byte, maxClock float64) float64 {
		size := float64(len(datas[root]))
		return maxClock + float64(w.cost.NetLatency*logSteps(w.n)) + size/w.cost.NetBandwidth
	})
	return datas[root]
}

// AllGather collects every rank's payload everywhere.
//
//lint:payload
func (r *Rank) AllGather(data []byte) [][]byte {
	w := r.world
	return r.runCollective("allgather", data, func(datas [][]byte, maxClock float64) float64 {
		var total int64
		for _, d := range datas {
			total += int64(len(d))
		}
		return maxClock + float64(w.cost.NetLatency*logSteps(w.n)) + float64(total)/w.cost.NetBandwidth
	})
}
