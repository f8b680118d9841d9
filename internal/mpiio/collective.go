// Two-phase (aggregator) collective I/O: the bounds exchange, aggregator
// domain partitioning, and shuffle-record plumbing shared by the collective
// write and the collective read, plus the two operations themselves.
package mpiio

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"parblast/internal/mpi"
)

// le is the byte order of every int64 the shuffle puts on the wire: plan
// bounds and the (offset, length) record headers.
var le = binary.LittleEndian

// bound is one live participant's view summary, gathered in phase 0: the
// extent plus the requested volume and segment count that feed the
// access-pattern signature.
type bound struct {
	rank   int
	lo, hi int64 // hi < 0 means an empty view
	total  int64 // sum of segment lengths
	segs   int64 // number of non-empty segments
}

// collPlan is the agreed outcome of a collective operation's bounds
// exchange: the live participants in ascending rank order, this rank's
// position among them, the aggregator count, and the aggregate extent.
// Every participant holds an identical plan but for selfIdx, so the message
// pattern needs no further coordination. parts, gLo and gHi are the one
// value the host derives per collective (mpi.Once) and are shared read-only;
// selfIdx and numAgg belong to the rank's own copy of the struct.
type collPlan struct {
	parts    []bound
	selfIdx  int
	numAgg   int
	gLo, gHi int64
}

// planCollective runs phase 0 of the two-phase algorithm: exchange view
// bounds and agree on participants. Crashed ranks contribute nil to the
// AllGather and are skipped, so the survivors still agree on domains and
// messages. The gathered bounds are decoded once per collective, by the
// first participant released, and every rank finds its own position in the
// result by one search. chooseAggregators completes the plan (phase 1) once
// the effective hints are known.
func (f *File) planCollective() collPlan {
	var lo, hi, total, segs int64 = 1<<62 - 1, -1, 0, 0
	for _, s := range f.view.Segments {
		if s.Length == 0 {
			continue
		}
		if s.Offset < lo {
			lo = s.Offset
		}
		if end := s.Offset + s.Length; end > hi {
			hi = end
		}
		total += s.Length
		segs++
	}
	bounds := make([]byte, 32)
	le.PutUint64(bounds[0:], uint64(lo))
	le.PutUint64(bounds[8:], uint64(hi))
	le.PutUint64(bounds[16:], uint64(total))
	le.PutUint64(bounds[24:], uint64(segs))
	all := f.rank.AllGather(bounds)
	p := mpi.Once(f.rank, "mpiio.plan", func() collPlan {
		p := collPlan{parts: make([]bound, 0, len(all)), gLo: 1<<62 - 1, gHi: -1}
		for i, b := range all {
			if len(b) < 32 {
				continue // crashed rank: no bounds
			}
			h := bound{
				rank:  i,
				lo:    int64(le.Uint64(b[0:])),
				hi:    int64(le.Uint64(b[8:])),
				total: int64(le.Uint64(b[16:])),
				segs:  int64(le.Uint64(b[24:])),
			}
			p.parts = append(p.parts, h)
			if h.hi < 0 {
				continue // that rank moves nothing
			}
			p.gLo, p.gHi = min(p.gLo, h.lo), max(p.gHi, h.hi)
		}
		return p
	})
	id := f.rank.ID()
	p.selfIdx = sort.Search(len(p.parts), func(i int) bool { return p.parts[i].rank >= id })
	if p.selfIdx == len(p.parts) || p.parts[p.selfIdx].rank != id {
		p.selfIdx = -1
	}
	return p
}

// chooseAggregators completes the plan: as many aggregators as the hints
// allow (cb_nodes, defaulting to the file system's concurrent-channel
// count), clamped to the live participant count AND to the aggregate
// extent — an aggregator with an empty byte domain would pay shuffle
// latency for nothing.
func (p *collPlan) chooseAggregators(channels int, h Hints) {
	n := h.CbNodes
	if n <= 0 {
		n = channels
	}
	if n > len(p.parts) {
		n = len(p.parts)
	}
	if extent := p.gHi - p.gLo; extent > 0 && int64(n) > extent {
		n = int(extent)
	}
	if n < 1 {
		n = 1
	}
	p.numAgg = n
}

// signature classifies the collective's access pattern from the gathered
// bounds — identically on every rank, since all inputs came out of the
// same AllGather. The (fs profile, signature) pair is the auto-tuner's
// learning key.
//
//	contig:  at most one non-empty segment per participant with data
//	strided: multi-segment views covering at least half the extent
//	holey:   multi-segment views requesting under half the extent
func (p collPlan) signature() string {
	var withData, segs, total int64
	for _, b := range p.parts {
		if b.hi < 0 {
			continue
		}
		withData++
		segs += b.segs
		total += b.total
	}
	if withData == 0 {
		return "empty"
	}
	if segs <= withData {
		return "contig"
	}
	if extent := p.gHi - p.gLo; 2*total >= extent {
		return "strided"
	}
	return "holey"
}

// empty reports that no participant has any data in its view.
func (p collPlan) empty() bool { return p.gHi < 0 }

// isAggregator reports whether the calling rank serves an aggregator domain.
func (p collPlan) isAggregator() bool { return p.selfIdx >= 0 && p.selfIdx < p.numAgg }

// domainOf returns aggregator a's half-open byte domain.
func (p collPlan) domainOf(a int) (int64, int64) {
	extent := p.gHi - p.gLo
	d0 := p.gLo + extent*int64(a)/int64(p.numAgg)
	d1 := p.gLo + extent*int64(a+1)/int64(p.numAgg)
	return d0, d1
}

// aggAt returns the aggregator whose domain contains file offset off.
func (p collPlan) aggAt(off int64) int {
	extent := p.gHi - p.gLo
	a := int(int64(p.numAgg) * (off - p.gLo) / extent)
	if a >= p.numAgg {
		a = p.numAgg - 1
	}
	// Integer flooring can land one domain low at boundaries; walk up
	// until off is strictly inside [d0, d1).
	_, d1 := p.domainOf(a)
	for off >= d1 && a < p.numAgg-1 {
		a++
		_, d1 = p.domainOf(a)
	}
	return a
}

// overlaps reports whether a participant extent [blo, bhi) can intersect
// aggregator a's domain. A rank ships to (and an aggregator receives from)
// a peer only when this holds — both sides compute it from the gathered
// bounds, so the skip rule is symmetric and no zero-byte messages are
// exchanged.
func (p collPlan) overlaps(blo, bhi int64, a int) bool {
	if bhi < 0 {
		return false // empty view: nothing to move
	}
	d0, d1 := p.domainOf(a)
	return blo < d1 && d0 < bhi
}

// splitView walks the rank's view segments in order, splitting each at
// aggregator domain boundaries, and hands every (aggregator, offset,
// length) piece to fn. Both collectives derive their shuffle traffic from
// this one walk, so the write and read message patterns agree by
// construction.
func (f *File) splitView(p collPlan, fn func(a int, off, length int64)) {
	for _, s := range f.view.Segments {
		segOff := s.Offset
		remain := s.Length
		for remain > 0 {
			a := p.aggAt(segOff)
			_, d1 := p.domainOf(a)
			take := remain
			if segOff+take > d1 {
				take = d1 - segOff
			}
			fn(a, segOff, take)
			segOff += take
			remain -= take
		}
	}
}

// touched returns the aggregators a participant extent [lo, hi) overlaps:
// first, and how many from there. Domains tile the extent without gaps, so
// they are the ones from the domain holding lo to the one holding hi-1, and
// exactly those that overlaps accepts. An empty view touches none.
func (p collPlan) touched(b bound) (first, n int) {
	if b.hi < 0 {
		return 0, 0
	}
	first = p.aggAt(b.lo)
	return first, p.aggAt(b.hi-1) - first + 1
}

// shufflePayloads builds the shuffle message for each aggregator the rank's
// extent touches from the rank's data: repeated records of (offset int64,
// length int64, bytes), one per piece. payloads[i] goes to aggregator
// first+i, so the arrays are sized by the aggregators the extent touches,
// not by the aggregator count. One splitView pass sizes each message and a
// second appends the records to it, so each message is allocated once.
// splitView hands out pieces in view order, so a running cursor locates each
// piece's bytes inside data.
func (f *File) shufflePayloads(p collPlan, data []byte) (first int, payloads [][]byte) {
	first, n := p.touched(p.parts[p.selfIdx])
	if n == 0 {
		return 0, nil
	}
	payloads = make([][]byte, n)
	sizes := make([]int64, n)
	f.splitView(p, func(a int, _, length int64) { sizes[a-first] += 16 + length })
	for i, size := range sizes {
		if size > 0 {
			payloads[i] = make([]byte, 0, size)
		}
	}
	var dataPos int64
	f.splitView(p, func(a int, off, length int64) {
		rec := le.AppendUint64(le.AppendUint64(payloads[a-first], uint64(off)), uint64(length))
		payloads[a-first] = append(rec, data[dataPos:dataPos+length]...)
		dataPos += length
	})
	return first, payloads
}

// eachRecord hands every (offset, bytes) record of a shuffle message to fn,
// in message order.
func eachRecord(buf []byte, fn func(off int64, data []byte)) {
	for len(buf) >= 16 {
		off := int64(le.Uint64(buf[0:]))
		length := int64(le.Uint64(buf[8:]))
		fn(off, buf[16:16+length])
		buf = buf[16+length:]
	}
}

// aggSpan is a covered interval inside an aggregator's domain.
type aggSpan struct {
	off  int64
	data []byte
}

// WriteCollective writes data through the installed views of ALL ranks as
// one collective operation. Every rank of the world must call it together
// (ranks with nothing to write pass an empty view and nil data).
//
// Algorithm (two-phase I/O):
//  1. ranks exchange view bounds to learn the aggregate extent;
//  2. the extent is partitioned over A aggregator ranks;
//  3. each rank ships the pieces of its data that land in each
//     aggregator's domain (real messages, real bytes);
//  4. each aggregator coalesces what it received and issues one large
//     sequential write per contiguous span.
func (f *File) WriteCollective(data []byte) error {
	if int64(len(data)) != f.view.TotalLength() {
		return fmt.Errorf("mpiio: data length %d != view length %d", len(data), f.view.TotalLength())
	}
	r := f.rank
	reg := r.Metrics()
	reg.Counter("mpiio.collective_writes", r.ID()).Inc()

	plan := f.planCollective()
	if plan.empty() {
		return nil // nobody writes anything
	}
	plan.chooseAggregators(f.fs.Profile().Channels, f.hints)

	// Phase 2: ship my data to each aggregator my extent touches.
	first, myPieces := f.shufflePayloads(plan, data)
	for i, piece := range myPieces {
		dst := plan.parts[first+i].rank
		if dst == r.ID() {
			continue // keep local pieces local (no self-message cost)
		}
		reg.Counter("mpiio.shuffle_bytes", r.ID()).Add(int64(len(piece)))
		r.Send(dst, tagBase+1, piece)
	}

	// Phase 3: aggregators collect, coalesce, and write. The receive set
	// mirrors the send rule: only participants whose extent overlaps my
	// domain will ship anything.
	if plan.isAggregator() {
		a := plan.selfIdx
		senders := 1
		for _, p := range plan.parts {
			if p.rank != r.ID() && plan.overlaps(p.lo, p.hi, a) {
				senders++
			}
		}
		msgs := make([][]byte, 1, senders)
		if i := a - first; i >= 0 && i < len(myPieces) {
			msgs[0] = myPieces[i]
		}
		for _, p := range plan.parts {
			if p.rank == r.ID() || !plan.overlaps(p.lo, p.hi, a) {
				continue
			}
			buf, _, _ := r.Recv(p.rank, tagBase+1)
			msgs = append(msgs, buf)
		}
		// Count the records first, so the span list is allocated once.
		n := 0
		for _, buf := range msgs {
			eachRecord(buf, func(int64, []byte) { n++ })
		}
		spans := make([]aggSpan, 0, n)
		for _, buf := range msgs {
			eachRecord(buf, func(off int64, data []byte) { spans = append(spans, aggSpan{off: off, data: data}) })
		}
		// Coalesce into maximal contiguous runs. A run is one write of the
		// model; on the host its pieces go straight from the messages into
		// the file, which the first aggregator grows once, to the end of the
		// whole write.
		slices.SortFunc(spans, func(x, y aggSpan) int { return cmp.Compare(x.off, y.off) })
		f.f.Reserve(plan.gHi)
		for i := 0; i < len(spans); {
			runStart := spans[i].off
			runLen := int64(0)
			for ; i < len(spans) && spans[i].off == runStart+runLen; i++ {
				f.f.WriteAt(spans[i].data, spans[i].off)
				runLen += int64(len(spans[i].data))
				r.MemCopy(int64(len(spans[i].data)))
			}
			r.IO(f.fs, runLen)
			reg.Counter("mpiio.agg_writes", r.ID()).Inc()
			reg.Counter("mpiio.agg_write_bytes", r.ID()).Add(runLen)
		}
	}

	// Phase 4: the collective completes when the slowest participant is
	// done (MPI_File_write_all is collective).
	r.Barrier()
	return nil
}

// readReq is one participant's requested extent inside an aggregator's
// domain.
type readReq struct {
	rank   int
	off, n int64
}

// ReadCollective reads the bytes selected by the installed views of ALL
// ranks as one collective operation (MPI_File_read_all). Every rank of the
// world must call it together; ranks with nothing to read pass an empty
// view and receive nil.
//
// The strategy is chosen by the file's hints (default two-phase) or, when
// a tuner is attached, by the tuner's per-(profile, access-pattern)
// decision — every rank derives the identical decision from the shared
// bounds exchange, so the message pattern still needs no coordination:
//
//   - two-phase (ROMIO default): aggregators issue large sieved
//     sequential reads — holes smaller than the effective sieve gap are
//     read through in one access, the skipped-hole bytes counted as
//     mpiio.sieve_waste_bytes — and ship each requester its pieces;
//   - list-io: the same shuffle, but aggregators issue one access per
//     coalesced request run, so no hole byte is ever transferred (zero
//     sieve waste, more operations);
//   - independent: every rank reads its own segments directly — no
//     shuffle traffic, full storage parallelism.
//
// Algorithm of the aggregated strategies (two-phase I/O, read side):
//  1. ranks exchange view bounds to learn the aggregate extent;
//  2. the extent is partitioned over A aggregator ranks;
//  3. each rank ships its REQUESTS (offset/length records, no data) to
//     the aggregators whose domains its extent overlaps;
//  4. each aggregator coalesces the requests into runs (sieved or exact)
//     and ships each rank its pieces back;
//  5. ranks assemble the received pieces into view order.
//
// Unlike the write side, a read always has a recovery path: the source
// file is intact, so when faults are scheduled and an aggregator dies
// mid-protocol, the requester falls back to independent reads of the
// missing pieces and the collective still returns correct bytes.
func (f *File) ReadCollective() ([]byte, error) {
	r := f.rank
	reg := r.Metrics()
	reg.Counter("mpiio.collective_reads", r.ID()).Inc()

	plan := f.planCollective()
	if plan.empty() {
		return nil, nil // nobody reads anything
	}
	if plan.selfIdx < 0 {
		return nil, fmt.Errorf("mpiio: calling rank missing from collective plan")
	}

	h := f.hints
	var obs *tunerObs
	if f.tuner != nil {
		h, obs = f.tuner.decide(r, f.fs.Profile(), plan.signature(), f.hints)
	}
	plan.chooseAggregators(f.fs.Profile().Channels, h)
	reg.Counter("mpiio.strategy."+h.ReadStrategy.slug(), r.ID()).Inc()

	var out []byte
	var err error
	if h.ReadStrategy == StrategyIndependent {
		// No aggregation: each rank reads its own segments (zero-length
		// segments are skipped) and the collective completes at the
		// crash-aware barrier like the other strategies.
		out = f.ReadIndependent()
		r.Barrier()
	} else {
		out, err = f.readAggregated(plan, h)
	}
	if err == nil && obs != nil {
		f.tuner.observe(r, obs)
	}
	return out, err
}

// readAggregated is the shuffle-based read path shared by the two-phase
// and list-I/O strategies; they differ only in how an aggregator turns
// the gathered requests into storage accesses (sieved runs vs exact
// coalesced runs).
func (f *File) readAggregated(plan collPlan, h Hints) ([]byte, error) {
	r := f.rank
	reg := r.Metrics()
	self := plan.parts[plan.selfIdx]

	// Phase 2: ship request records (offset, length) to each aggregator my
	// extent touches; keep the local aggregator's requests local.
	first, n := plan.touched(self)
	myReqs := make([][]byte, n)
	f.splitView(plan, func(a int, off, length int64) {
		myReqs[a-first] = le.AppendUint64(le.AppendUint64(myReqs[a-first], uint64(off)), uint64(length))
	})
	for i, req := range myReqs {
		dst := plan.parts[first+i].rank
		if dst == r.ID() {
			continue
		}
		reg.Counter("mpiio.read_requests", r.ID()).Inc()
		r.Send(dst, tagBase+2, req)
	}

	// Phase 3: aggregators gather requests, read their domains with data
	// sieving, and ship each requester its pieces back as (offset,
	// length, bytes) records.
	var localPieces []byte // my own pieces when I am an aggregator
	if plan.isAggregator() {
		a := plan.selfIdx
		var reqs []readReq
		addReqs := func(rank int, buf []byte) {
			for len(buf) >= 16 {
				reqs = append(reqs, readReq{rank: rank, off: int64(le.Uint64(buf[0:])), n: int64(le.Uint64(buf[8:]))})
				buf = buf[16:]
			}
		}
		if i := a - first; i >= 0 && i < n {
			addReqs(r.ID(), myReqs[i])
		}
		live := make(map[int]bool)
		for _, p := range plan.parts {
			if p.rank == r.ID() || !plan.overlaps(p.lo, p.hi, a) {
				continue
			}
			buf, err := r.RecvCrashAware(p.rank, tagBase+2)
			if err != nil {
				continue // requester died before asking; nothing to serve
			}
			live[p.rank] = true
			addReqs(p.rank, buf)
		}
		sort.Slice(reqs, func(i, j int) bool {
			if reqs[i].off != reqs[j].off {
				return reqs[i].off < reqs[j].off
			}
			return reqs[i].rank < reqs[j].rank
		})
		// The strategies differ only in the hole threshold: two-phase
		// sieves through holes strictly smaller than the effective gap;
		// list-I/O (gap 0) merges only overlapping or abutting requests,
		// so every run is exact and no hole byte is ever transferred.
		var gap int64
		if h.ReadStrategy == StrategyTwoPhase {
			gap = h.EffectiveSieveGap(f.fs.Profile())
		}
		reply := make(map[int][]byte)
		for i := 0; i < len(reqs); {
			// Grow a run: absorb overlapping/abutting requests (hole ≤ 0
			// — always free) and, under two-phase, requests whose holes
			// are strictly below the sieve threshold. A hole of exactly
			// the gap starts a new run: transferring it costs no less
			// than the operation latency it would save.
			runStart := reqs[i].off
			runEnd := runStart + reqs[i].n
			j := i + 1
			for j < len(reqs) {
				if hole := reqs[j].off - runEnd; hole > 0 && hole >= gap {
					break
				}
				if end := reqs[j].off + reqs[j].n; end > runEnd {
					runEnd = end
				}
				j++
			}
			buf := make([]byte, runEnd-runStart)
			got := f.f.ReadAt(buf, runStart)
			r.IO(f.fs, int64(got))
			reg.Counter("mpiio.agg_reads", r.ID()).Inc()
			reg.Counter("mpiio.agg_read_bytes", r.ID()).Add(int64(got))
			if h.ReadStrategy == StrategyListIO {
				reg.Counter("mpiio.listio_reads", r.ID()).Inc()
			}
			// Waste = hole bytes transferred but not requested by anyone.
			covEnd := runStart
			var waste int64
			for k := i; k < j; k++ {
				if reqs[k].off > covEnd {
					waste += reqs[k].off - covEnd
				}
				if end := reqs[k].off + reqs[k].n; end > covEnd {
					covEnd = end
				}
			}
			reg.Counter("mpiio.sieve_waste_bytes", r.ID()).Add(waste)
			for k := i; k < j; k++ {
				q := reqs[k]
				data := buf[q.off-runStart:]
				if q.n < int64(len(data)) {
					data = data[:q.n]
				}
				rec := make([]byte, 16+len(data))
				le.PutUint64(rec[0:], uint64(q.off))
				le.PutUint64(rec[8:], uint64(int64(len(data))))
				copy(rec[16:], data)
				reply[q.rank] = append(reply[q.rank], rec...)
				r.MemCopy(int64(len(data)))
			}
			i = j
		}
		localPieces = reply[r.ID()]
		for _, p := range plan.parts {
			if p.rank == r.ID() || !plan.overlaps(p.lo, p.hi, a) || !live[p.rank] {
				continue
			}
			reg.Counter("mpiio.shuffle_bytes", r.ID()).Add(int64(len(reply[p.rank])))
			r.Send(p.rank, tagBase+3, reply[p.rank])
		}
	}

	// Phase 5: collect my pieces from every overlapping aggregator and
	// assemble them in view order. A dead aggregator's pieces are re-read
	// independently — correct, just slower.
	pieces := make(map[int64][]byte)
	failed := make(map[int]bool)
	addPieces := func(buf []byte) {
		eachRecord(buf, func(off int64, data []byte) { pieces[off] = data })
	}
	for a := 0; a < plan.numAgg; a++ {
		if !plan.overlaps(self.lo, self.hi, a) {
			continue
		}
		if plan.parts[a].rank == r.ID() {
			addPieces(localPieces)
			continue
		}
		buf, err := r.RecvCrashAware(plan.parts[a].rank, tagBase+3)
		if err != nil {
			failed[a] = true
			continue
		}
		addPieces(buf)
	}
	out := make([]byte, 0, f.view.TotalLength())
	f.splitView(plan, func(a int, off, length int64) {
		if failed[a] {
			out = append(out, f.ReadAt(off, length)...)
			return
		}
		data := pieces[off]
		out = append(out, data...)
		r.MemCopy(int64(len(data)))
	})

	// The read completes when the slowest participant is done
	// (MPI_File_read_all is collective). Barrier is crash-aware: it
	// completes over survivors if a peer died mid-protocol.
	r.Barrier()
	return out, nil
}
