package mpiblast

import (
	"fmt"
	"slices"

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
// the same stages: the assignment bookkeeper (assigner, over the engines'
// shared ownership ledger), the flat result store (fragResults), the tree
// fold (foldTree), and one output loop (writeQueries) over the serialized
// render/fetch/write stage (writeQuery). The drivers stay separate because
// they are different protocols, not copies: the flat master ingests results
// WHILE workers search and releases each requester as the queue drains; the
// tree master parks every idle requester and releases them in one sweep; a
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

	// The output stage: the job's kernel (for the selection cap and the
	// statistics the header and footer print), the single result file,
	// opened by openOutput, and off, the running offset in it.
	searcher   *blast.Searcher
	maxTargets int
	out        *mpiio.File
	off        int64
	text       []byte // the query report being rendered, reused query to query
}

// masterHit is one candidate on the master: the alignment, and the worker
// holding the subject residues the formatter still needs.
type masterHit struct {
	res    *blast.SubjectResult
	worker int
}

// assigner is the greedy fragment-assignment bookkeeping under both one-shot
// receive loops: the queue of unsearched fragments, the requesters parked
// while it is empty — a worker asks again only once its fragment is searched
// (flat protocol: and submitted), so a parked one has nothing in flight —
// and the ledger of what each was given, requeued whole on a crash.
type assigner struct {
	r      *mpi.Rank
	queue  []int
	parked []int
	own    *engine.Ledger
}

func newAssigner(r *mpi.Rank, nFrags int) *assigner {
	a := &assigner{r: r, queue: make([]int, 0, nFrags), own: engine.NewLedger(r.Size() - 1)}
	for f := 0; f < nFrags; f++ {
		a.queue = append(a.queue, f)
	}
	return a
}

// recv takes the next worker message. ok=false means there is nothing to
// handle — a detection timeout (dead workers purged via purge) or a stale
// message from a crashed worker — and the caller should re-check its loop
// condition.
func (a *assigner) recv(purge func()) (data []byte, from, tag int, ok bool, err error) {
	data, from, tag, err = a.r.RecvTimeout(mpi.AnySource, mpi.AnyTag, a.r.DetectInterval())
	if err != nil {
		// Timed out: check ground truth for crashed workers.
		purge()
		if len(a.own.Alive()) == 0 {
			return nil, 0, 0, false, fmt.Errorf("mpiblast: all workers failed; cannot recover")
		}
		return nil, 0, 0, false, nil
	}
	if a.r.Failed(from) {
		return nil, 0, 0, false, nil
	}
	return data, from, tag, true, nil
}

// assign gives w the next queued fragment, if there is one.
func (a *assigner) assign(w int) bool {
	if len(a.queue) == 0 {
		return false
	}
	f := a.queue[0]
	a.queue = a.queue[1:]
	a.own.Give(w, f)
	a.r.Send(w, tagAssign, engine.EncodeInt(f))
	return true
}

// purgeDead reaps crashed workers from the ledger and requeues every
// fragment they searched or were searching — recovery is expensive here by
// construction: the replacement worker must re-COPY the physical fragment
// files before searching (contrast with pioBLAST, which only re-issues
// offset ranges).
// onDead, if set, is told of each dead worker and its lost fragments before
// they are requeued. Parked requesters are then served from the replenished
// queue; one the queue cannot serve stays parked unless settle takes it.
func (a *assigner) purgeDead(onDead func(w int, lost []int), settle func(w int) bool) {
	a.own.Reap(a.r.Failed, func(w int, lost []int) {
		if onDead != nil {
			onDead(w, lost)
		}
		a.queue = append(a.queue, lost...)
		a.r.Metrics().Counter("engine.frags_requeued", a.r.ID()).Add(int64(len(lost)))
	})
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
	r.Advance(r.Cost().ResultMsgCost + float64(float64(len(msg.Hits))*r.Cost().MergeItemCost))
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
	a := newAssigner(r, nFrags)
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
	for remaining > 0 || len(released) < len(a.own.Alive()) {
		data, from, tag, ok, err := a.recv(purge)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		switch tag {
		case tagWorkReq:
			if a.assign(from) {
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
			var msg resultsMsg
			c := engine.Decoder(data)
			if err := msg.code(&c).Err(); err != nil {
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
	m.openOutput()
	return m.writeQueries(m.job.Queries, m.admit, qlat, a.own.Alive(), func(qi int) ([]masterHit, blast.WorkCounters) {
		// The serialized merge handles one query at a time: stamp it as the
		// trace context so the fetch round-trips it triggers carry it.
		r.SetTraceBatch(qi)
		return results.query(r, qi)
	})
}

// oneShotTree is the tree one-shot protocol: greedy assignment (results
// never travel during search), one sweep release, the tree reduction, and
// then the same output loop over the merged selection.
func (m *master) oneShotTree(qlat *[]float64) error {
	r := m.r
	r.SetPhase(simtime.PhaseIdle)
	a := newAssigner(r, len(m.meta.FragBases))
	// A crashed worker's results only ever existed in its memory, so
	// everything it completed or had in flight is re-searched.
	purge := func() { a.purgeDead(nil, nil) }
	// A parked worker has nothing in flight: the search is over once the
	// queue is empty and every live worker is parked.
	for len(a.queue) > 0 || len(a.parked) < len(a.own.Alive()) {
		_, from, tag, ok, err := a.recv(purge)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if tag != tagWorkReq {
			return fmt.Errorf("mpiblast: tree master got unexpected tag %d from %d", tag, from)
		}
		if !a.assign(from) {
			a.parked = append(a.parked, from) // idle, awaiting the sweep release
		}
	}
	// Sweep release: every live worker is told at once.
	alive := a.own.Alive()
	for _, w := range alive {
		r.Send(w, tagAssign, engine.EncodeInt(-1))
	}

	m.openOutput()
	res, err := m.foldTree(alive, len(m.job.Queries))
	if err != nil {
		return err
	}
	return m.writeQueries(m.job.Queries, m.admit, qlat, alive, func(qi int) ([]masterHit, blast.WorkCounters) {
		// One query at a time through the output loop: stamp it as the
		// trace context so its fetch round-trips carry it.
		r.SetTraceBatch(qi)
		return unpackTreeHits(res.Hits[qi]), res.Work[qi]
	})
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
	m.openOutput()
	// Ownership is fixed: serve mode has no faults.
	workers := engine.WorkerRanks(r.Size() - 1)
	return engine.ServeStream(r, stream, bank, stats, func(b workload.Batch, arrival float64) error {
		nQueries := len(b.Queries)
		hits := make([][]masterHit, nQueries)
		work := make([]blast.WorkCounters, nQueries)
		if m.meta.Tree {
			res, err := m.foldTree(workers, nQueries)
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
				var msg resultsMsg
				c := engine.Decoder(data)
				if err := msg.code(&c).Err(); err != nil {
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
		// The admission clock is the batch's arrival, never its dispatch;
		// released, the workers loop back to the next batch broadcast.
		return m.writeQueries(b.Queries, arrival, qlat, workers, func(qi int) ([]masterHit, blast.WorkCounters) {
			return hits[qi], work[qi]
		})
	})
}

// openOutput opens the result file for the output stage.
func (m *master) openOutput() {
	m.out = mpiio.OpenOrCreate(m.r, m.node.Shared, m.job.OutputPath)
}

// foldTree is the master's half of the hierarchical merge: contribute an
// identity bundle and fold the tree; the result is already the per-query
// selection. A worker of alive that the fold lacks died mid-merge: its
// results are unrecoverable, so the merge fails cleanly and sends nothing —
// the flat path's output-phase contract — and the partial fold is not
// decoded.
func (m *master) foldTree(alive []int, nQueries int) (res treeResults, err error) {
	r := m.r
	r.SetPhase(simtime.PhaseOutput)
	identity := treeResults{Work: make([]blast.WorkCounters, nQueries), Hits: make([][]treeHit, nQueries)}
	var combErr error
	combined, contributors, err := r.TreeReduce(0, m.meta.TreeFanout, nil, identity.encode(), treeResultsCombiner(r, m.maxTargets, &combErr))
	if err != nil {
		return res, err
	}
	if combErr != nil {
		return res, combErr
	}
	if !slices.Equal(contributors[1:], alive) {
		return res, fmt.Errorf("mpiblast: worker crashed during the hierarchical merge; recovery only covers the search phase")
	}
	c := engine.Decoder(combined)
	if err = res.code(&c).Err(); err != nil {
		return res, err
	}
	if len(res.Hits) != nQueries {
		return res, fmt.Errorf("mpiblast: tree merge returned %d queries, want %d", len(res.Hits), nQueries)
	}
	return res, nil
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

	text := append(append(m.text[:0], blast.RenderHeader(opts.OutFormat, m.kind, q, m.dbInfo)...),
		blast.RenderSummary(opts.OutFormat, engine.SummaryResults(merged))...)
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
		residues, err := engine.RecvOutputPhase(r, "mpiblast", h.Worker, tagHitData)
		if err != nil {
			return err
		}
		start := len(text)
		text = blast.AppendHit(text, opts.OutFormat, q, residues, byOID[h.OID].res, opts.Matrix)
		r.FormatCost(int64(len(text) - start))
		r.Advance(r.Cost().FetchItemCost)
	}
	space := engine.SearchSpaceFor(m.searcher, q.Len(), m.meta.TotalLen, m.meta.NumSeqs)
	text = append(text, blast.RenderFooter(opts.OutFormat, m.searcher.GappedParams(), space, work)...)
	r.FormatCost(int64(len(text)) / 8) // header/summary/footer rendering
	m.out.Reserve(m.off + int64(len(text)))
	m.out.WriteAt(text, m.off)
	m.off += int64(len(text))
	m.text = text
	return nil
}

// writeQueries is the output loop of all three drivers: query by query, take
// the candidates from next, write the report and settle the latency from
// since; then end the workers' fetch service. Each driver's next keeps its
// own merge charge and trace context: the one-shot drivers stamp the query
// and (flat) merge it as it is written, the serving one merged the batch.
func (m *master) writeQueries(queries []*seq.Sequence, since float64, qlat *[]float64, workers []int, next func(qi int) ([]masterHit, blast.WorkCounters)) error {
	r := m.r
	r.SetPhase(simtime.PhaseOutput)
	for qi, q := range queries {
		hits, work := next(qi)
		if err := m.writeQuery(qi, q, hits, work); err != nil {
			return err
		}
		engine.SettleQuery(r, since, qlat)
	}
	for _, w := range workers {
		r.Send(w, tagRelease, nil)
	}
	return nil
}
