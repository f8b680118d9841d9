package blast

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"parblast/internal/seq"
	"parblast/internal/stats"
)

// Searcher holds the immutable configuration of a search: options plus the
// raw-score conversions of the bit-valued heuristics. Searchers are safe to
// share; per-goroutine scratch state lives in Context.
type Searcher struct {
	opts Options
	up   stats.Params // ungapped Karlin–Altschul parameters
	gp   stats.Params // gapped parameters (final statistics)

	xdropUngapped int // raw scores
	xdropGapped   int
	xdropFinal    int
	gapTrigger    int
}

// NewSearcher validates options and prepares a Searcher.
func NewSearcher(opts Options) (*Searcher, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxTargetSeqs == 0 {
		opts.MaxTargetSeqs = 500
	}
	if opts.MaxHSPsPerSubject == 0 {
		opts.MaxHSPsPerSubject = 25
	}
	s := &Searcher{opts: opts, up: opts.ungappedParams(), gp: opts.gappedParams()}
	bitsToRaw := func(bits float64, p stats.Params) int {
		r := int(math.Ceil(bits * math.Ln2 / p.Lambda))
		if r < 1 {
			r = 1
		}
		return r
	}
	s.xdropUngapped = bitsToRaw(opts.XDropUngapped, s.up)
	s.xdropGapped = bitsToRaw(opts.XDropGapped, s.gp)
	s.xdropFinal = bitsToRaw(opts.XDropFinal, s.gp)
	s.gapTrigger = bitsToRaw(opts.GapTriggerBits, s.up)
	return s, nil
}

// Options returns a copy of the searcher's configuration.
func (s *Searcher) Options() Options { return s.opts }

// GappedParams exposes the statistics used for final scores.
func (s *Searcher) GappedParams() stats.Params { return s.gp }

// Context carries the loaded query and reusable scratch buffers. The query's
// word index is not the context's own: it lives in the shared, immutable
// PreparedQuery the context points at. A Context belongs to one goroutine;
// SearchFragment may internally fan subjects out to clone Contexts (one per
// worker goroutine), which it owns and reuses across calls.
type Context struct {
	s *Searcher
	// query is this context's own sequence — the ID results are reported
	// under and the unmasked residues extensions run over; prep is the
	// index built from residues equal to its.
	query *seq.Sequence
	prep  *PreparedQuery

	// Diagonal bookkeeping, epoch-stamped so it needs no clearing between
	// subjects. Index: (sPos - qPos) + queryLen.
	lastHit  []int32
	extLevel []int32
	stamp    []int32
	epoch    int32

	// dp is the gapped-extension scratch, reused across all seeds.
	dp dpScratch
	// boxes is the per-subject seed-containment scratch.
	boxes []hspBox

	// clones are the worker contexts of the intra-rank search pool, created
	// lazily and reused across SearchFragment calls.
	clones []*Context
}

// hspBox is the query/subject bounding box of an already-found gapped HSP,
// used to skip seeds inside regions an extension already covered.
type hspBox struct{ q0, q1, s0, s1 int }

// NewContext creates scratch state for one goroutine.
func (s *Searcher) NewContext() *Context {
	return &Context{s: s}
}

// SetQuery prepares the query (see Searcher.Prepare) and loads it. One of
// SetQuery and UsePrepared must succeed before SearchFragment; both may be
// called repeatedly to reuse the context. On error the context is left with
// no query loaded.
func (c *Context) SetQuery(q *seq.Sequence) error {
	c.unload()
	p, err := c.s.Prepare(q)
	if err != nil {
		return err
	}
	return c.UsePrepared(q, p)
}

// UsePrepared loads q with an index prepared earlier — by this searcher,
// from a sequence with the same residues (a QueryBank guarantees both).
// Results are reported under q's own ID. On error the context is left with
// no query loaded.
func (c *Context) UsePrepared(q *seq.Sequence, p *PreparedQuery) error {
	c.unload()
	if err := c.s.checkAlphabet(q); err != nil {
		return err
	}
	if len(p.seeding) != q.Len() {
		return fmt.Errorf("blast: query %q has %d residues, its prepared index %d", q.ID, q.Len(), len(p.seeding))
	}
	c.query, c.prep = q, p
	return nil
}

// unload drops the loaded query. The pool clones let go of it here too,
// rather than keeping the last query's index reachable after its bank has
// released it.
func (c *Context) unload() {
	c.query, c.prep = nil, nil
	for _, cl := range c.clones {
		cl.query, cl.prep = nil, nil
	}
}

// Query returns the query currently loaded in the context.
func (c *Context) Query() *seq.Sequence { return c.query }

func (c *Context) ensureDiag(n int) {
	if len(c.stamp) < n {
		c.lastHit = make([]int32, n)
		c.extLevel = make([]int32, n)
		c.stamp = make([]int32, n)
		c.epoch = 0
	}
	c.epoch++
	if c.epoch == math.MaxInt32 {
		for i := range c.stamp {
			c.stamp[i] = 0
		}
		c.epoch = 1
	}
}

// searchThreads resolves the worker count for one fragment.
func (c *Context) searchThreads(nSubjects int) int {
	n := c.s.opts.SearchThreads
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > nSubjects {
		n = nSubjects
	}
	if n < 1 {
		n = 1
	}
	return n
}

// SearchFragment runs the loaded query against every subject in the
// fragment. The search space must describe the WHOLE database (not the
// fragment) so that scores and E-values are identical no matter how the
// database is partitioned — the property the parallel engines' merging
// relies on.
//
// With Options.SearchThreads != 1 the subjects are sharded across a bounded
// pool of worker goroutines (clone Contexts). Each subject's search is
// independent and deterministic, and results are reassembled in subject
// order before the canonical sort, so the output is byte-identical to the
// sequential path for every thread count.
func (c *Context) SearchFragment(frag *Fragment, space stats.SearchSpace) (*QueryResult, error) {
	if c.query == nil {
		return nil, fmt.Errorf("blast: SearchFragment before SetQuery")
	}
	res := &QueryResult{QueryID: c.query.ID}
	res.Work.Add(c.prep.work)
	cutoffRaw := c.s.gp.ScoreForEValue(c.s.opts.EValue, space)

	if nw := c.searchThreads(len(frag.Subjects)); nw > 1 {
		c.searchParallel(frag, cutoffRaw, space, nw, res)
	} else {
		for i := range frag.Subjects {
			if r := c.searchOneSubject(&frag.Subjects[i], cutoffRaw, space, &res.Work); r != nil {
				res.Hits = append(res.Hits, r)
			}
		}
	}

	SortHits(res.Hits)
	if len(res.Hits) > c.s.opts.MaxTargetSeqs {
		res.Hits = res.Hits[:c.s.opts.MaxTargetSeqs]
	}
	return res, nil
}

// searchOneSubject runs the full per-subject pipeline — scan, extend,
// statistics, HSP cap — and returns the subject's result (nil when it has
// no surviving HSPs). It touches only this context's scratch, so distinct
// contexts may run it concurrently on distinct subjects.
func (c *Context) searchOneSubject(sub *Subject, cutoffRaw int, space stats.SearchSpace, work *WorkCounters) *SubjectResult {
	hsps := c.searchSubject(sub.Residues, cutoffRaw, work)
	if len(hsps) == 0 {
		return nil
	}
	for _, h := range hsps {
		h.BitScore = c.s.gp.BitScore(h.Score)
		h.EValue = c.s.gp.EValue(h.Score, space)
	}
	work.HSPsFound += int64(len(hsps))
	SortHSPs(hsps)
	if len(hsps) > c.s.opts.MaxHSPsPerSubject {
		hsps = hsps[:c.s.opts.MaxHSPsPerSubject]
	}
	return &SubjectResult{
		OID:     sub.OID,
		ID:      sub.ID,
		Defline: sub.Defline,
		SubjLen: len(sub.Residues),
		HSPs:    hsps,
	}
}

// searchParallel shards the fragment's subjects across nw worker contexts.
// Slot i of the result array is subject i's outcome, so reassembly preserves
// the sequential append order exactly; per-worker WorkCounters are summed in
// worker order, which is deterministic because int64 addition is exact.
func (c *Context) searchParallel(frag *Fragment, cutoffRaw int, space stats.SearchSpace, nw int, res *QueryResult) {
	for len(c.clones) < nw-1 {
		c.clones = append(c.clones, c.s.NewContext())
	}
	workers := make([]*Context, nw)
	workers[0] = c
	for i := 1; i < nw; i++ {
		cl := c.clones[i-1]
		cl.query, cl.prep = c.query, c.prep
		workers[i] = cl
	}

	slots := make([]*SubjectResult, len(frag.Subjects))
	works := make([]WorkCounters, nw)
	// Static interleaved sharding: worker w takes subjects w, w+nw, ...
	// Subject lengths are i.i.d. in practice, so interleaving balances load
	// without the coordination of a shared queue.
	var wg sync.WaitGroup
	for w := 1; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := workers[w]
			for i := w; i < len(frag.Subjects); i += nw {
				slots[i] = ctx.searchOneSubject(&frag.Subjects[i], cutoffRaw, space, &works[w])
			}
		}(w)
	}
	for i := 0; i < len(frag.Subjects); i += nw {
		slots[i] = c.searchOneSubject(&frag.Subjects[i], cutoffRaw, space, &works[0])
	}
	wg.Wait()

	for w := range works {
		res.Work.Add(works[w])
	}
	for _, r := range slots {
		if r != nil {
			res.Hits = append(res.Hits, r)
		}
	}
}

// searchSubject scans one subject for seeds and extends them.
func (c *Context) searchSubject(subj []byte, cutoffRaw int, work *WorkCounters) []*HSP {
	query := c.query.Residues
	idx := c.prep.idx
	w := c.s.opts.WordSize
	if len(subj) < w || len(query) < w {
		work.ResiduesScanned += int64(len(subj))
		return nil
	}
	c.ensureDiag(len(query) + len(subj) + 1)
	work.ResiduesScanned += int64(len(subj))

	var hsps []*HSP
	// Boxes of already-found gapped HSPs, for seed containment skipping;
	// the backing array is context scratch reused across subjects.
	boxes := c.boxes[:0]

	handleHit := func(qPos, sPos int) {
		work.SeedHits++
		d := sPos - qPos + len(query)
		if c.stamp[d] != c.epoch {
			c.stamp[d] = c.epoch
			c.lastHit[d] = int32(-1 << 30)
			c.extLevel[d] = 0
		}
		if int32(sPos) < c.extLevel[d] {
			return // inside a region already covered by an extension
		}
		if c.s.opts.TwoHitWindow > 0 {
			gap := sPos - int(c.lastHit[d])
			if gap > c.s.opts.TwoHitWindow {
				// First hit on this diagonal (or the previous one is out of
				// range): remember it and wait for a second hit.
				c.lastHit[d] = int32(sPos)
				return
			}
			if gap < w {
				// Overlaps the remembered hit. Do NOT overwrite it —
				// otherwise densely spaced hits (as in near-identical
				// regions) would keep resetting the window and never
				// qualify. This mirrors the NCBI diagonal array.
				return
			}
			c.lastHit[d] = int32(sPos)
		}
		seg := extendUngapped(query, subj, qPos, sPos, c.s.opts.Matrix, c.s.xdropUngapped, work)
		c.extLevel[d] = int32(seg.sTo)
		if seg.score >= c.s.gapTrigger {
			// Skip if the seed midpoint is inside an HSP we already have.
			for _, b := range boxes {
				if seg.seedQ >= b.q0 && seg.seedQ < b.q1 && seg.seedS >= b.s0 && seg.seedS < b.s1 {
					return
				}
			}
			h := c.gappedFromSeed(query, subj, seg.seedQ, seg.seedS, work)
			if h != nil && h.Score >= cutoffRaw {
				hsps = append(hsps, h)
				boxes = append(boxes, hspBox{h.QueryFrom, h.QueryTo, h.SubjFrom, h.SubjTo})
			}
		} else if seg.score >= cutoffRaw {
			// Significant without gaps: keep as an ungapped HSP. The trace
			// is implicit (all OpSub) — synthesized lazily at render time
			// instead of materialized per HSP.
			h := &HSP{
				QueryFrom: seg.qFrom, QueryTo: seg.qTo,
				SubjFrom: seg.sFrom, SubjTo: seg.sTo,
				Score: seg.score,
			}
			hsps = append(hsps, h)
		}
	}

	if idx.dense {
		strict := idx.strict
		offsets, positions := idx.offsets, idx.positions
		// Rolling dense word ID over strict residues.
		valid := 0
		id := 0
		hi := 1
		for i := 1; i < w; i++ {
			hi *= strict
		}
		for j := 0; j < len(subj); j++ {
			cdb := subj[j]
			if int(cdb) >= strict {
				valid, id = 0, 0
				continue
			}
			id = id%hi*strict + int(cdb)
			valid++
			if valid < w {
				continue
			}
			start := j - w + 1
			for _, qPos := range positions[offsets[id]:offsets[id+1]] {
				handleHit(int(qPos), start)
			}
		}
	} else {
		strict := uint64(idx.strict)
		mod := uint64(1)
		for i := 0; i < w; i++ {
			mod *= strict
		}
		valid := 0
		var id uint64
		for j := 0; j < len(subj); j++ {
			cdb := subj[j]
			if int(cdb) >= idx.strict {
				valid, id = 0, 0
				continue
			}
			id = (id*strict + uint64(cdb)) % mod
			valid++
			if valid < w {
				continue
			}
			start := j - w + 1
			for _, qPos := range idx.lookupSparse(id) {
				handleHit(int(qPos), start)
			}
		}
	}

	c.boxes = boxes[:0]
	return cullContained(hsps)
}

// gappedFromSeed runs the two-directional gapped extension around a seed
// point and assembles the combined HSP.
func (c *Context) gappedFromSeed(query, subj []byte, seedQ, seedS int, work *WorkCounters) *HSP {
	right := extendGapped(&c.dp, query[seedQ:], subj[seedS:], c.s.opts.Matrix, c.s.opts.Gaps, c.s.xdropGapped, work)
	c.dp.revQ = reverseInto(c.dp.revQ, query[:seedQ])
	c.dp.revS = reverseInto(c.dp.revS, subj[:seedS])
	left := extendGapped(&c.dp, c.dp.revQ, c.dp.revS, c.s.opts.Matrix, c.s.opts.Gaps, c.s.xdropGapped, work)
	score := left.score + right.score
	if score <= 0 {
		return nil
	}
	ops := make([]EditOp, 0, len(left.ops)+len(right.ops))
	ops = append(ops, reverseOps(left.ops)...)
	ops = append(ops, right.ops...)
	// If the two half-extensions both open a gap of the same kind at the
	// seed boundary, the concatenated trace is one merged run but both
	// halves charged a gap-open; refund the double-counted open so the
	// score matches the trace exactly.
	if len(left.ops) > 0 && len(right.ops) > 0 {
		l, r := ops[len(left.ops)-1], ops[len(left.ops)]
		if l == r && l != OpSub {
			score += c.s.opts.Gaps.Open
		}
	}
	return &HSP{
		QueryFrom: seedQ - left.qEnd,
		QueryTo:   seedQ + right.qEnd,
		SubjFrom:  seedS - left.sEnd,
		SubjTo:    seedS + right.sEnd,
		Score:     score,
		Trace:     ops,
	}
}

// cullContained removes duplicate HSPs and HSPs whose query AND subject
// ranges are both contained in a higher-scoring HSP.
func cullContained(hsps []*HSP) []*HSP {
	if len(hsps) <= 1 {
		return hsps
	}
	SortHSPs(hsps)
	kept := hsps[:0]
	for _, h := range hsps {
		contained := false
		for _, k := range kept {
			if h.QueryFrom >= k.QueryFrom && h.QueryTo <= k.QueryTo &&
				h.SubjFrom >= k.SubjFrom && h.SubjTo <= k.SubjTo {
				contained = true
				break
			}
		}
		if !contained {
			kept = append(kept, h)
		}
	}
	return kept
}
