package engine

import (
	"fmt"
	"math"

	"parblast/internal/blast"
	"parblast/internal/mpi"
	"parblast/internal/seq"
	"parblast/internal/simtime"
	"parblast/internal/workload"
)

// Streaming admission control for the serving mode: an open-loop arrival
// sequence meets a single-dispatch server (the warm cluster runs one batch
// at a time), mediated by a bounded FIFO queue with deterministic
// drop-newest overload shedding.
//
// The model is intentionally minimal so its behavior is provable: the
// server calls Next each time it becomes free at virtual time `now`; the
// queue replays every arrival with time ≤ now in arrival order, shedding
// any batch that arrives while the queue already holds Capacity waiting
// entries. Between two Next calls the queue only grows, so occupancy at
// each arrival instant — and therefore the shed set — is a pure function
// of the arrival times and the dispatch times, independent of host
// scheduling. That is what lets the SLA experiments pin "which batches
// were shed" byte-for-byte.

// Admission is the bounded admission queue. Not safe for concurrent use;
// the serving master owns it.
type Admission struct {
	arrivals []float64
	capacity int
	next     int   // first arrival index not yet enqueued or shed
	queue    []int // admitted batches waiting for dispatch, FIFO
	shed     []int // arrival indices dropped at their arrival instant
}

// NewAdmission builds a queue over the given arrival times (must be
// non-decreasing, as produced by workload.Arrivals). capacity bounds the
// number of batches waiting for dispatch; 0 means unbounded.
func NewAdmission(arrivals []float64, capacity int) *Admission {
	return &Admission{arrivals: arrivals, capacity: capacity}
}

// admitUpTo replays arrivals with time ≤ now into the queue, shedding on
// overflow (drop-newest: the arriving batch is the one dropped).
func (a *Admission) admitUpTo(now float64) {
	for a.next < len(a.arrivals) && a.arrivals[a.next] <= now {
		if a.capacity > 0 && len(a.queue) >= a.capacity {
			a.shed = append(a.shed, a.next)
		} else {
			a.queue = append(a.queue, a.next)
		}
		a.next++
	}
}

// Next returns the next batch to dispatch when the server becomes free at
// virtual time now: the queue head if any batch is waiting, otherwise the
// next future arrival (the server idles until it lands — its dispatch time
// is its arrival time). ok is false when the stream is exhausted. The
// returned arrival time is the batch's admission clock — latency baselines
// measure from it, never from the dispatch.
func (a *Admission) Next(now float64) (batch int, arrival float64, ok bool) {
	a.admitUpTo(now)
	if len(a.queue) > 0 {
		batch = a.queue[0]
		a.queue = a.queue[1:]
		return batch, a.arrivals[batch], true
	}
	if a.next < len(a.arrivals) {
		// Idle server: the next arrival is dispatched the instant it
		// lands, so it can never be shed.
		batch = a.next
		a.next++
		return batch, a.arrivals[batch], true
	}
	return 0, 0, false
}

// Depth returns the current number of waiting batches (for tests and
// queue-depth telemetry).
func (a *Admission) Depth() int { return len(a.queue) }

// ShedSeqs returns the arrival indices shed so far, in arrival order. The
// list is complete once Next has returned ok=false.
func (a *Admission) ShedSeqs() []int { return append([]int(nil), a.shed...) }

// ServeStats is the per-stream accounting a serving run returns alongside
// its RunResult: one entry per DISPATCHED batch (in dispatch order), plus
// the shed set. All times are virtual.
type ServeStats struct {
	// Arrivals counts every generated batch; Admitted the dispatched
	// ones; Shed the dropped ones. Arrivals == Admitted + Shed.
	Arrivals int
	Admitted int
	Shed     int
	// ShedSeqs lists the shed batches' arrival-order ids.
	ShedSeqs []int
	// Per-dispatched-batch parallel slices, in dispatch order.
	BatchSeq     []int     // arrival-order batch id
	BatchArrival []float64 // admission clock (open-loop arrival time)
	BatchStart   []float64 // master clock when dispatch began
	BatchDone    []float64 // master clock when the batch's output landed
	BatchQueries []int     // queries in the batch
}

// RecordDispatch appends one dispatched batch's accounting.
func (s *ServeStats) RecordDispatch(seq int, arrival, start, done float64, queries int) {
	s.Admitted++
	s.BatchSeq = append(s.BatchSeq, seq)
	s.BatchArrival = append(s.BatchArrival, arrival)
	s.BatchStart = append(s.BatchStart, start)
	s.BatchDone = append(s.BatchDone, done)
	s.BatchQueries = append(s.BatchQueries, queries)
}

// Stream is a serving run's input: the arrival stream and the admission
// queue's bound (0 = unbounded).
type Stream struct {
	Batches  []workload.Batch
	AdmitCap int
}

// Validate sanity-checks a serving stream against its job: every
// batch's queries must be a contiguous in-order slice of the job's query
// set (what the one-shot oracle runs), arrivals must be non-decreasing
// (what Admission assumes), and the admission cap cannot be negative. pkg
// prefixes the errors with the calling engine.
func (s *Stream) Validate(pkg string, nQueries int) error {
	if s.AdmitCap < 0 {
		return fmt.Errorf("%s: negative admission cap %d", pkg, s.AdmitCap)
	}
	next, prevArrival := 0, 0.0
	for _, b := range s.Batches {
		if b.First != next || len(b.Queries) == 0 {
			return fmt.Errorf("%s: batch %d is not a contiguous in-order partition of the query set", pkg, b.Seq)
		}
		if math.IsNaN(b.Arrival) || math.IsInf(b.Arrival, 0) {
			return fmt.Errorf("%s: batch %d has non-finite arrival %g", pkg, b.Seq, b.Arrival)
		}
		if b.Arrival < prevArrival {
			return fmt.Errorf("%s: batch %d arrives before its predecessor", pkg, b.Seq)
		}
		next += len(b.Queries)
		prevArrival = b.Arrival
	}
	if next != nQueries {
		return fmt.Errorf("%s: stream covers %d queries, job has %d", pkg, next, nQueries)
	}
	return nil
}

// serveBatchMsg is the per-batch broadcast of a serving run: the batch's
// arrival-order id (the trace-batch context) and its packed queries.
// Seq == -1 is the end-of-stream sentinel.
type serveBatchMsg struct {
	Seq     int
	Queries []byte // EncodeWireQueries payload; nil on the sentinel
}

func (m serveBatchMsg) encode() []byte {
	var w Writer
	w.Int(int64(m.Seq))
	w.Blob(m.Queries)
	return w.Bytes()
}

func decodeServeBatchMsg(data []byte) (serveBatchMsg, error) {
	r := NewReader(data)
	m := serveBatchMsg{Seq: int(r.Int()), Queries: r.Blob()}
	return m, r.Err()
}

// ServeStream is the master side of a serving run, after the cluster is
// warm: run the admission queue over the arrival stream, idle on the
// virtual clock until the next admitted batch lands, stamp its Seq as the
// trace context for every envelope it causes, broadcast its queries, and
// hand it to serve — the engine's per-batch merge and output, which gets
// the batch's ARRIVAL as its latency baseline (never the dispatch, and never
// reset by recovery: queueing delay and recovery cost both land in the
// latency). Once serve returns the batch is settled — every worker has
// searched it and its output is written — so its entries in the job's query
// bank are released: the bank holds one batch, not the stream. When the
// stream is exhausted the sentinel broadcast releases the workers; the
// closing barrier is the caller's. stats receives the per-batch accounting
// and the shed set.
func ServeStream(r *mpi.Rank, s *Stream, bank *blast.QueryBank, stats *ServeStats, serve func(b workload.Batch, arrival float64) error) error {
	batches := s.Batches
	arrivals := make([]float64, len(batches))
	for i, b := range batches {
		arrivals[i] = b.Arrival
	}
	stats.Arrivals = len(batches)
	adm := NewAdmission(arrivals, s.AdmitCap)
	for {
		now := r.Clock().Now()
		bi, arrival, ok := adm.Next(now)
		if !ok {
			break
		}
		b := batches[bi]
		if arrival > now {
			// Open-loop idle: the cluster is drained, wait for the next
			// arrival on the virtual clock.
			r.SetPhase(simtime.PhaseIdle)
			r.Advance(arrival - now)
		}
		start := r.Clock().Now()
		r.SetTraceBatch(b.Seq)
		r.SetPhase(simtime.PhaseOther)
		r.Bcast(0, serveBatchMsg{
			Seq:     b.Seq,
			Queries: EncodeWireQueries(PackQueries(b.Queries)),
		}.encode())
		if err := serve(b, arrival); err != nil {
			return err
		}
		bank.Release(b.Queries)
		stats.RecordDispatch(b.Seq, arrival, start, r.Clock().Now(), len(b.Queries))
		r.Metrics().Counter("engine.batches_served", r.ID()).Inc()
	}
	stats.ShedSeqs = adm.ShedSeqs()
	stats.Shed = len(stats.ShedSeqs)
	r.Metrics().Counter("engine.batches_shed", r.ID()).Add(int64(stats.Shed))
	r.SetPhase(simtime.PhaseOther)
	r.Bcast(0, serveBatchMsg{Seq: -1}.encode())
	return nil
}

// NextBatch is the worker side of ServeStream: wait (idle) for the next
// batch broadcast, adopt its Seq as the trace context, and take its queries.
// ok is false on the end-of-stream sentinel.
func NextBatch(r *mpi.Rank) (queries []*seq.Sequence, ok bool, err error) {
	r.SetPhase(simtime.PhaseIdle)
	b := ReadBroadcast(r, r.Bcast(0, nil), func(data []byte) (int, []byte, error) {
		msg, err := decodeServeBatchMsg(data)
		return msg.Seq, msg.Queries, err
	})
	if b.Err != nil || b.Meta < 0 {
		return nil, false, b.Err
	}
	r.SetTraceBatch(b.Meta)
	return b.Queries, true, nil
}
