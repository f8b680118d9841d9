package mpiblast

import (
	"bytes"
	"fmt"

	"parblast/internal/blast"
	"parblast/internal/engine"
	"parblast/internal/mpi"
	"parblast/internal/mpiio"
	"parblast/internal/seq"
	"parblast/internal/simtime"
	"parblast/internal/vfs"
	"parblast/internal/workload"
)

// The master side of the baseline. Three short drivers — the flat one-shot
// protocol, the tree one-shot protocol, and the serving stream — run over
// the same stages: the assignment bookkeeper (assigner), the flat result
// store (fragResults), the tree fold (foldTree), and the serialized
// render/fetch/write output stage (writeQuery). The drivers stay separate
// because they are different protocols, not copies: the flat master ingests
// results WHILE workers search and releases each requester as the queue
// drains; the tree master only tracks completion, parks every idle
// requester, and releases them in one sweep carrying the survivor list; a
// serving master has no assignment at all (ownership is static) and merges
// once per stream batch.

// master is the baseline master's state after the job broadcast.
type master struct {
	r    *mpi.Rank
	node *vfs.Node
	job  *engine.Job
	masterPlan
	window int     // outstanding fetch requests (Options.FetchWindow, ≥ 1)
	admit  float64 // master clock when the job broadcast completed

	// The output stage, opened by openOutput; off is the running offset in
	// the single result file.
	searcher   *blast.Searcher
	maxTargets int
	out        *mpiio.File
	off        int64
}

// masterHit is one candidate on the master: the alignment, and the worker
// holding the subject residues the formatter still needs.
type masterHit struct {
	res    *blast.SubjectResult
	worker int
}

// assigner is the greedy fragment-assignment bookkeeping under both
// one-shot receive loops: the queue of unsearched fragments, which fragment
// each worker has in flight and which it has finished (so a crashed
// worker's whole contribution can be requeued), the live set, and the
// requesters parked while the queue is empty.
type assigner struct {
	r       *mpi.Rank
	tree    bool // assignment payload format (encodeTreeAssign vs a bare int)
	queue   []int
	alive   []int
	current []int   // fragment in flight per worker (-1 none)
	doneBy  [][]int // fragments completed per worker
	parked  []int
}

func newAssigner(r *mpi.Rank, nFrags int, tree bool) *assigner {
	workers := r.Size() - 1
	a := &assigner{
		r: r, tree: tree,
		queue:   make([]int, 0, nFrags),
		alive:   engine.WorkerRanks(workers),
		current: make([]int, workers+1),
		doneBy:  make([][]int, workers+1),
	}
	for f := 0; f < nFrags; f++ {
		a.queue = append(a.queue, f)
	}
	for w := range a.current {
		a.current[w] = -1
	}
	return a
}

// recv takes the next worker message. ok=false means there is nothing to
// handle — a detection timeout (dead workers purged via purge) or a stale
// message from a crashed worker — and the caller should re-check its loop
// condition.
func (a *assigner) recv(ft bool, purge func()) (data []byte, from, tag int, ok bool, err error) {
	if !ft {
		data, from, tag = a.r.Recv(mpi.AnySource, mpi.AnyTag)
		return data, from, tag, true, nil
	}
	data, from, tag, err = a.r.RecvTimeout(mpi.AnySource, mpi.AnyTag, a.r.Cost().FaultDetectInterval())
	if err != nil {
		// Timed out: check ground truth for crashed workers.
		purge()
		if len(a.alive) == 0 {
			return nil, 0, 0, false, fmt.Errorf("mpiblast: all workers failed; cannot recover")
		}
		return nil, 0, 0, false, nil
	}
	if a.r.Failed(from) {
		return nil, 0, 0, false, nil
	}
	return data, from, tag, true, nil
}

// request books a work request from w — which acknowledges its previous
// fragment: a worker only asks again once that fragment is fully searched
// (and, flat protocol, its results submitted) — and assigns the next queued
// fragment if there is one.
func (a *assigner) request(w int) bool {
	if cur := a.current[w]; cur >= 0 {
		a.doneBy[w] = append(a.doneBy[w], cur)
		a.current[w] = -1
	}
	return a.assign(w)
}

func (a *assigner) assign(w int) bool {
	if len(a.queue) == 0 {
		return false
	}
	f := a.queue[0]
	a.queue = a.queue[1:]
	a.current[w] = f
	if a.tree {
		a.r.Send(w, tagAssign, encodeTreeAssign(f, nil))
	} else {
		a.r.Send(w, tagAssign, engine.EncodeInt(f))
	}
	return true
}

// purgeDead removes crashed workers and requeues every fragment they
// searched or were searching — recovery is expensive here by construction:
// the replacement worker must re-COPY the physical fragment files before
// searching (contrast with pioBLAST, which only re-issues offset ranges).
// onDead, if set, is told of each dead worker and its lost fragments before
// they are requeued. Parked requesters are then served from the replenished
// queue; one the queue cannot serve stays parked unless settle takes it.
func (a *assigner) purgeDead(onDead func(w int, lost []int), settle func(w int) bool) {
	live := a.alive[:0]
	for _, w := range a.alive {
		if !a.r.Failed(w) {
			live = append(live, w)
			continue
		}
		lost := append([]int(nil), a.doneBy[w]...)
		if a.current[w] >= 0 {
			lost = append(lost, a.current[w])
		}
		if onDead != nil {
			onDead(w, lost)
		}
		a.queue = append(a.queue, lost...)
		a.r.Metrics().Counter("engine.frags_requeued", a.r.ID()).Add(int64(len(lost)))
		a.doneBy[w] = nil
		a.current[w] = -1
	}
	a.alive = live
	keep := a.parked[:0]
	for _, w := range a.parked {
		if a.r.Failed(w) || a.assign(w) || (settle != nil && settle(w)) {
			continue
		}
		keep = append(keep, w)
	}
	a.parked = keep
}

// fragResults stores the flat protocol's submissions PER FRAGMENT (not just
// per query), so that a crashed worker's partial contributions can be
// dropped and its fragments re-searched.
type fragResults struct {
	hits [][][]masterHit // [fragment][query]
	work [][]blast.WorkCounters
	got  [][]bool
}

func newFragResults(nFrags, nQueries int) *fragResults {
	fr := &fragResults{
		hits: make([][][]masterHit, nFrags),
		work: make([][]blast.WorkCounters, nFrags),
		got:  make([][]bool, nFrags),
	}
	for f := 0; f < nFrags; f++ {
		fr.hits[f] = make([][]masterHit, nQueries)
		fr.work[f] = make([]blast.WorkCounters, nQueries)
		fr.got[f] = make([]bool, nQueries)
	}
	return fr
}

// ingest splices one (query, fragment) submission into the store. Splicing
// a fragment's alignments into the master's result structures is real work
// on the master's critical path, charged to the output phase.
func (fr *fragResults) ingest(r *mpi.Rank, msg resultsMsg) {
	r.SetPhase(simtime.PhaseOutput)
	r.Advance(r.Cost().ResultMsgCost + float64(len(msg.Hits))*r.Cost().MergeItemCost)
	hits := make([]masterHit, 0, len(msg.Hits))
	for _, wh := range msg.Hits {
		res, _ := wh.Unpack()
		hits = append(hits, masterHit{res: res, worker: msg.Worker})
	}
	fr.got[msg.Fragment][msg.Query] = true
	fr.hits[msg.Fragment][msg.Query] = hits
	fr.work[msg.Fragment][msg.Query] = msg.Work
	r.SetPhase(simtime.PhaseIdle)
}

// drop forgets everything received for fragment f and returns how many
// (fragment, query) results that was.
func (fr *fragResults) drop(f int) int {
	n := 0
	for q := range fr.got[f] {
		if fr.got[f][q] {
			fr.got[f][q] = false
			fr.hits[f][q] = nil
			fr.work[f][q] = blast.WorkCounters{}
			n++
		}
	}
	return n
}

// query concatenates one query's hits in fragment order — deterministic
// regardless of result arrival order or crash recovery (MergeHits imposes a
// total order anyway) — and charges the per-item cost of merging them.
func (fr *fragResults) query(r *mpi.Rank, qi int) ([]masterHit, blast.WorkCounters) {
	var hits []masterHit
	var work blast.WorkCounters
	for f := range fr.hits {
		hits = append(hits, fr.hits[f][qi]...)
		work.Add(fr.work[f][qi])
	}
	r.Advance(float64(len(hits)) * r.Cost().MergeItemCost)
	return hits, work
}

// oneShotFlat is the flat one-shot protocol. While the workers copy and
// search, the master serves assignments and ingests result submissions —
// mostly waiting — then merges and writes query by query.
func (m *master) oneShotFlat(qlat *[]float64) error {
	r := m.r
	nFrags, nQueries := len(m.meta.FragBases), len(m.job.Queries)
	r.SetPhase(simtime.PhaseIdle)
	results := newFragResults(nFrags, nQueries)
	a := newAssigner(r, nFrags, false)
	released := make(map[int]bool) // workers already told "done"
	remaining := nFrags * nQueries // (fragment, query) results outstanding
	release := func(w int) {
		r.Send(w, tagAssign, engine.EncodeInt(-1))
		released[w] = true
	}
	purge := func() {
		a.purgeDead(func(w int, lost []int) {
			for _, f := range lost {
				remaining += results.drop(f)
			}
			delete(released, w)
		}, func(w int) bool {
			if remaining == 0 {
				release(w)
			}
			return remaining == 0
		})
	}
	for remaining > 0 || len(released) < len(a.alive) {
		data, from, tag, ok, err := a.recv(m.ft, purge)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		switch tag {
		case tagWorkReq:
			if a.request(from) {
				break
			}
			if m.ft && remaining > 0 {
				// Queue empty but results outstanding: park the requester —
				// a crashed peer's fragment may yet need a new home.
				a.parked = append(a.parked, from)
				break
			}
			release(from)
		case tagResults:
			msg, err := decodeResultsMsg(data)
			if err != nil {
				return err
			}
			if results.got[msg.Fragment][msg.Query] {
				break // duplicate after a requeue race; first submission wins
			}
			results.ingest(r, msg)
			remaining--
			if remaining == 0 {
				// Everything is in: release any parked requesters.
				for _, w := range a.parked {
					release(w)
				}
				a.parked = nil
			}
		default:
			return fmt.Errorf("mpiblast: master got unexpected tag %d from %d", tag, from)
		}
	}

	// Serialized result merging and output (§2.2 / Figure 2 right side).
	r.SetPhase(simtime.PhaseOutput)
	if err := m.openOutput(); err != nil {
		return err
	}
	for qi, q := range m.job.Queries {
		// The serialized merge handles one query at a time: stamp it as the
		// trace context so the fetch round-trips it triggers carry it.
		r.SetTraceBatch(qi)
		hits, work := results.query(r, qi)
		if err := m.writeQuery(qi, q, hits, work); err != nil {
			return err
		}
		engine.SettleQuery(r, m.admit, qlat)
	}
	m.releaseFetchService(a.alive)
	return nil
}

// oneShotTree is the tree one-shot protocol: greedy assignment tracked by
// COMPLETION (a work request acknowledges the prior fragment — results
// never travel during search), one sweep release carrying the survivor
// membership, the tree reduction, and then the same output stage over the
// merged selection.
func (m *master) oneShotTree(qlat *[]float64) error {
	r := m.r
	r.SetPhase(simtime.PhaseIdle)
	a := newAssigner(r, len(m.meta.FragBases), true)
	idle := func() bool {
		if len(a.queue) > 0 {
			return false
		}
		for _, w := range a.alive {
			if a.current[w] >= 0 {
				return false
			}
		}
		return true
	}
	// A crashed worker's results only ever existed in its memory, so
	// everything it completed or had in flight is re-searched.
	purge := func() { a.purgeDead(nil, nil) }
	for !(idle() && len(a.parked) == len(a.alive)) {
		_, from, tag, ok, err := a.recv(m.ft, purge)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if tag != tagWorkReq {
			return fmt.Errorf("mpiblast: tree master got unexpected tag %d from %d", tag, from)
		}
		if !a.request(from) {
			a.parked = append(a.parked, from) // idle, awaiting the sweep release
		}
	}
	// Sweep release: everyone learns the final membership at once.
	for _, w := range a.alive {
		r.Send(w, tagAssign, encodeTreeAssign(-1, a.alive))
	}

	if err := m.openOutput(); err != nil {
		return err
	}
	members := engine.TreeMembers(a.alive)
	res, complete, err := m.foldTree(members, len(m.job.Queries))
	if err != nil {
		return err
	}
	if !complete {
		// A member died mid-merge; its results are unrecoverable. Stand
		// the survivors down, then fail cleanly — the same output-phase
		// contract as the flat path.
		r.TreeBcast(0, m.meta.TreeFanout, members, []byte{0})
		return fmt.Errorf("mpiblast: worker crashed during the hierarchical merge; recovery only covers the search phase")
	}
	r.TreeBcast(0, m.meta.TreeFanout, members, []byte{1})
	for qi, q := range m.job.Queries {
		// One query at a time through the output loop: stamp it as the
		// trace context so its fetch round-trips carry it.
		r.SetTraceBatch(qi)
		if err := m.writeQuery(qi, q, unpackTreeHits(res.Hits[qi]), res.Work[qi]); err != nil {
			return err
		}
		engine.SettleQuery(r, m.admit, qlat)
	}
	m.releaseFetchService(a.alive)
	return nil
}

// serveStream is the serving driver: ownership is static and the fragments
// are already resident on the workers, so each admitted batch is just the
// merge (flat collection or tree fold) and the output stage, continued at
// the stream's running offset. The trace context stays the batch id (not
// the per-query ordinal the one-shot drivers use), so the flow graph splits
// by arrival batch.
func (m *master) serveStream(stream *engine.Stream, bank *blast.QueryBank, stats *engine.ServeStats, qlat *[]float64) error {
	r := m.r
	nFrags := len(m.meta.FragBases)
	if err := m.openOutput(); err != nil {
		return err
	}
	// Membership is fixed (no faults in serve mode), so the tree fold needs
	// no abort protocol.
	workers := engine.WorkerRanks(r.Size() - 1)
	members := engine.TreeMembers(workers)
	return engine.ServeStream(r, stream, bank, stats, func(b workload.Batch, arrival float64) error {
		nQueries := len(b.Queries)
		hits := make([][]masterHit, nQueries)
		work := make([]blast.WorkCounters, nQueries)
		if m.meta.Tree {
			res, _, err := m.foldTree(members, nQueries)
			if err != nil {
				return err
			}
			for qi := range hits {
				hits[qi], work[qi] = unpackTreeHits(res.Hits[qi]), res.Work[qi]
			}
		} else {
			// Flat collection: every (query, fragment) result streams through
			// the master, with the same ingestion cost as the one-shot run.
			r.SetPhase(simtime.PhaseIdle)
			results := newFragResults(nFrags, nQueries)
			for remaining := nFrags * nQueries; remaining > 0; remaining-- {
				data, _, _ := r.Recv(mpi.AnySource, tagResults)
				msg, err := decodeResultsMsg(data)
				if err != nil {
					return err
				}
				results.ingest(r, msg)
			}
			for qi := range hits {
				r.SetPhase(simtime.PhaseOutput)
				hits[qi], work[qi] = results.query(r, qi)
				r.SetPhase(simtime.PhaseIdle)
			}
		}
		r.SetPhase(simtime.PhaseOutput)
		for qi, q := range b.Queries {
			if err := m.writeQuery(qi, q, hits[qi], work[qi]); err != nil {
				return err
			}
			// The admission clock is the batch's arrival, never its dispatch.
			engine.SettleQuery(r, arrival, qlat)
		}
		// Release the workers' fetch service; they loop back to the next
		// batch broadcast.
		m.releaseFetchService(workers)
		return nil
	})
}

// openOutput prepares the output stage: the kernel (for the selection cap
// and the statistics the header and footer print) and the result file.
func (m *master) openOutput() error {
	searcher, err := blast.NewSearcher(m.job.Options)
	if err != nil {
		return err
	}
	m.searcher = searcher
	m.maxTargets = searcher.Options().MaxTargetSeqs
	m.out = mpiio.OpenOrCreate(m.r, m.node.Shared, m.job.OutputPath)
	return nil
}

// foldTree is the master's half of the hierarchical merge: contribute an
// identity bundle and fold the tree; the result is already the per-query
// selection. complete is false when a member died mid-merge — the partial
// fold is then not decoded.
func (m *master) foldTree(members []int, nQueries int) (res treeResults, complete bool, err error) {
	r := m.r
	r.SetPhase(simtime.PhaseOutput)
	identity := treeResults{Work: make([]blast.WorkCounters, nQueries), Hits: make([][]treeHit, nQueries)}
	var combErr error
	combined, contributors, err := r.TreeReduce(0, m.meta.TreeFanout, members, identity.encode(), treeResultsCombiner(r, m.maxTargets, &combErr))
	if err != nil {
		return res, false, err
	}
	if combErr != nil {
		return res, false, combErr
	}
	if len(contributors) != len(members) {
		return res, false, nil
	}
	if res, err = decodeTreeResults(combined); err != nil {
		return res, false, err
	}
	if len(res.Hits) != nQueries {
		return res, false, fmt.Errorf("mpiblast: tree merge returned %d queries, want %d", len(res.Hits), nQueries)
	}
	return res, true, nil
}

func unpackTreeHits(ths []treeHit) []masterHit {
	hits := make([]masterHit, 0, len(ths))
	for _, th := range ths {
		res, _ := th.Hit.Unpack()
		hits = append(hits, masterHit{res: res, worker: th.Worker})
	}
	return hits
}

// writeQuery is the baseline's serialized output stage for one query: apply
// the global selection rule to the candidates, render the header and
// summary, fetch every selected hit's subject residues from its worker and
// render its block, append the footer, and write the report at the running
// offset — all on the master, alone. qi is the query's index in the
// workers' current query set (the fetch key). The caller owns the trace
// context and the latency baseline.
func (m *master) writeQuery(qi int, q *seq.Sequence, hits []masterHit, work blast.WorkCounters) error {
	r, opts := m.r, m.job.Options
	byOID := make(map[int]masterHit, len(hits))
	metas := make([]engine.HitMeta, 0, len(hits))
	for _, mh := range hits {
		byOID[mh.res.OID] = mh
		metas = append(metas, engine.MetaFromResult(mh.worker, mh.res, 0))
	}
	merged := engine.MergeHits(metas, m.maxTargets)
	if !m.meta.Tree {
		// A merge is recorded exactly where a merge cost is charged: the
		// flat protocol pays for this selection on the master
		// (fragResults.query); the tree protocol already paid for — and
		// recorded — it in the combiners, and re-selecting here is free.
		engine.RecordMerge(r.Metrics(), r.ID(), len(metas), len(merged))
	}

	var text bytes.Buffer
	text.WriteString(blast.RenderHeader(opts.OutFormat, m.kind, q, m.dbInfo))
	text.WriteString(blast.RenderSummary(opts.OutFormat, engine.SummaryResults(merged)))
	// Fetch every selected hit's sequence information from its worker —
	// one serial request/reply per hit in faithful mode (the bottleneck
	// the paper measured at >40% of mpiBLAST's output time), or with a
	// sliding window of outstanding requests in the pipelined ablation.
	sent := 0
	for done := 0; done < len(merged); done++ {
		for sent < len(merged) && sent-done < m.window {
			h := merged[sent]
			r.Send(h.Worker, tagFetch, fetchKey{Query: qi, OID: h.OID}.encode())
			sent++
		}
		h := merged[done]
		// The hit data lives only in its worker's memory, so a crash at
		// this point is unrecoverable.
		residues, err := engine.RecvOutputPhase(r, "mpiblast", h.Worker, tagHitData, m.ft)
		if err != nil {
			return err
		}
		block := blast.RenderHit(opts.OutFormat, q, residues, byOID[h.OID].res, opts.Matrix)
		r.FormatCost(int64(len(block)))
		r.Advance(r.Cost().FetchItemCost)
		text.WriteString(block)
	}
	space := engine.SearchSpaceFor(m.searcher, q.Len(), m.meta.TotalLen, m.meta.NumSeqs)
	text.WriteString(blast.RenderFooter(opts.OutFormat, m.searcher.GappedParams(), space, work))
	r.FormatCost(int64(text.Len()) / 8) // header/summary/footer rendering
	m.out.WriteAt(text.Bytes(), m.off)
	m.off += int64(text.Len())
	return nil
}

// releaseFetchService ends the workers' fetch service.
func (m *master) releaseFetchService(workers []int) {
	for _, w := range workers {
		m.r.Send(w, tagRelease, nil)
	}
}
