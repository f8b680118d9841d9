package blast

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
	roll wordRoll     // how word ids are read off a sequence

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
	s := &Searcher{opts: opts, up: opts.ungappedParams(), gp: opts.gappedParams(),
		roll: newWordRoll(opts.WordSize, opts.Matrix.Alphabet().StrictSize())}
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

	// Diagonal bookkeeping, index (sPos - qPos) + queryLen, stored past a
	// per-subject base (ensureDiag), never above diagEnd: nothing is cleared.
	diag    []diagState
	diagEnd int32

	// The word ids of wordsOf, the Subjects of the fragment last searched
	// (encode): subject i's are words[starts[i]:starts[i+1]].
	wordsOf []Subject
	words   []uint64
	starts  []int

	// dp is the gapped-extension scratch, reused across all seeds.
	dp dpScratch
	// boxes is the per-subject seed-containment scratch.
	boxes []hspBox

	// pool is the intra-rank search pool this context drives when it is the
	// one SearchFragment was called on; a pool's clones leave theirs empty.
	pool searchPool
}

// searchPool is the state of searchParallel, kept across SearchFragment calls
// so that a call allocates nothing for the pool: not its arrays and, because
// each worker's goroutine body is bound once, not its go statements either.
type searchPool struct {
	// workers[0] is the owning context, the rest its clones, created lazily;
	// starts[w] is worker w's goroutine body.
	workers []*Context
	starts  []func()
	wg      sync.WaitGroup

	// The call in flight.
	frag      *Fragment
	cutoffRaw int
	space     stats.SearchSpace
	next      atomic.Int64     // the next subject nobody has claimed yet
	slots     []*SubjectResult // per-subject outcomes, in fragment order
	works     []WorkCounters   // per-worker tallies
}

// diagState is what seeding remembers about one diagonal, kept in one place
// so that a seed hit — almost always one that only updates lastHit — touches
// one cache line. Both are subject offsets plus the subject's diagonal base.
type diagState struct {
	lastHit  int32 // the hit a second one must pair with
	extLevel int32 // where the last extension on the diagonal reached
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
	for _, cl := range c.pool.workers {
		cl.query, cl.prep = nil, nil
	}
}

// Query returns the query currently loaded in the context.
func (c *Context) Query() *seq.Sequence { return c.query }

// ensureDiag makes room for n diagonals (at least doubling) and returns the
// base a subject of length subjLen stores offsets from: past every value
// stored before by more than the two-hit window, so an older entry reads as a
// hit out of range and an extension level behind every position. Past the
// int32 range the array is cleared and the bases start again.
func (c *Context) ensureDiag(n, subjLen int) int {
	if len(c.diag) < n {
		c.diag = make([]diagState, max(n, 2*len(c.diag)))
	}
	base := int(c.diagEnd) + c.s.opts.TwoHitWindow + 1
	if base+subjLen > math.MaxInt32 {
		clear(c.diag)
		base = c.s.opts.TwoHitWindow + 1
	}
	c.diagEnd = int32(base + subjLen)
	return base
}

// encode makes words hold the id of the word ending at each residue of frag's
// subjects (roll.none where none ends) unless it already does: keyed by the
// Subjects slice (first element, length), one encoding serves every query
// searched against the fragment. A search treats subjects as read-only.
func (c *Context) encode(frag *Fragment) {
	subs := frag.Subjects
	if len(subs) == len(c.wordsOf) && (len(subs) == 0 || &subs[0] == &c.wordsOf[0]) {
		return
	}
	n, longest := 0, 0
	for i := range subs {
		n, longest = n+len(subs[i].Residues), max(longest, len(subs[i].Residues))
	}
	if cap(c.words) < n {
		// Fragments cut by residue count differ by about a subject: room for two.
		c.words = make([]uint64, 0, n+2*longest)
	}
	c.words, c.starts = c.words[:0], append(c.starts[:0], 0)
	roll := c.s.roll
	for i := range subs {
		var id uint64
		run, s := 0, subs[i].Residues
		for j := range s {
			if id, run = roll.next(id, run, s, j); run >= roll.w {
				c.words = append(c.words, id)
			} else {
				c.words = append(c.words, roll.none)
			}
		}
		c.starts = append(c.starts, len(c.words))
	}
	c.wordsOf = subs
}

// searchThreads resolves the worker count for one fragment.
func (c *Context) searchThreads(nSubjects int) int {
	n := c.s.opts.SearchThreads
	if n == 0 {
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
// With Options.SearchThreads != 1 a bounded pool of worker goroutines (clone
// Contexts) claims the subjects one at a time. Each subject's search is
// independent and deterministic, and results are reassembled in subject
// order before the canonical sort, so the output is byte-identical to the
// sequential path for every thread count and every claim order.
func (c *Context) SearchFragment(frag *Fragment, space stats.SearchSpace) (*QueryResult, error) {
	if c.query == nil {
		return nil, fmt.Errorf("blast: SearchFragment before SetQuery")
	}
	res := &QueryResult{QueryID: c.query.ID}
	res.Work.Add(c.prep.work)
	cutoffRaw := c.s.gp.ScoreForEValue(c.s.opts.EValue, space)
	c.encode(frag)

	if nw := c.searchThreads(len(frag.Subjects)); nw > 1 {
		c.searchParallel(frag, cutoffRaw, space, nw, res)
	} else {
		for i := range frag.Subjects {
			if r := c.searchOneSubject(&frag.Subjects[i], c.subjectWords(i), cutoffRaw, space, &res.Work); r != nil {
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

// subjectWords returns subject i's word ids in the current encoding.
func (c *Context) subjectWords(i int) []uint64 { return c.words[c.starts[i]:c.starts[i+1]] }

// searchOneSubject runs the full per-subject pipeline — scan, extend,
// statistics, HSP cap — and returns the subject's result (nil when it has
// no surviving HSPs). It writes only this context's scratch, so distinct
// contexts may run it concurrently on distinct subjects.
func (c *Context) searchOneSubject(sub *Subject, words []uint64, cutoffRaw int, space stats.SearchSpace, work *WorkCounters) *SubjectResult {
	hsps := c.searchSubject(sub.Residues, words, cutoffRaw, work)
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

// searchParallel spreads the fragment's subjects over nw worker contexts.
// Workers claim the next unsearched subject from one shared counter, so a
// fragment whose expensive subjects cluster (a family's members sit at a
// fixed stride in a synthesized database) still keeps every worker busy.
// Which worker searched which subject is host scheduling and shows nowhere:
// slot i of the result array is subject i's outcome, so reassembly preserves
// the sequential append order exactly, and the counters are a sum of
// per-subject int64 tallies, which no grouping or order can change.
func (c *Context) searchParallel(frag *Fragment, cutoffRaw int, space stats.SearchSpace, nw int, res *QueryResult) {
	p := &c.pool
	for w := len(p.workers); w < nw; w++ {
		cl := c
		if w > 0 {
			cl = c.s.NewContext()
		}
		p.workers = append(p.workers, cl)
		p.starts = append(p.starts, func() {
			defer p.wg.Done()
			p.drain(w)
		})
	}
	for _, cl := range p.workers[1:nw] {
		cl.query, cl.prep = c.query, c.prep
	}
	p.slots = slices.Grow(p.slots[:0], len(frag.Subjects))[:len(frag.Subjects)]
	p.works = append(p.works[:0], make([]WorkCounters, nw)...)
	p.frag, p.cutoffRaw, p.space = frag, cutoffRaw, space
	p.next.Store(0)

	p.wg.Add(nw - 1)
	for _, start := range p.starts[1:nw] {
		go start()
	}
	p.drain(0)
	p.wg.Wait()

	for w := range p.works {
		res.Work.Add(p.works[w])
	}
	for _, r := range p.slots {
		if r != nil {
			res.Hits = append(res.Hits, r)
		}
	}
	// The results are the caller's now, the fragment always was.
	clear(p.slots)
	p.frag = nil
}

// drain is worker w's share of the call in flight: whatever subjects it is
// first to claim, scanned through the owning context's encoding.
func (p *searchPool) drain(w int) {
	ctx, owner, work := p.workers[w], p.workers[0], &p.works[w]
	for i := int(p.next.Add(1)) - 1; i < len(p.slots); i = int(p.next.Add(1)) - 1 {
		p.slots[i] = ctx.searchOneSubject(&p.frag.Subjects[i], owner.subjectWords(i), p.cutoffRaw, p.space, work)
	}
}

// searchSubject scans one subject, whose word ids are words, for seeds and
// extends them.
//
// The model charges one SeedHit per (query position, subject position) word
// match; the host pays per position only the index probe (where no word ends
// it probes an empty row), and per hit only what the two-hit rule needs, for
// nearly every hit one diagState read and one store. Only a hit that
// qualifies for extension leaves the loop, through subjectScan.extend.
func (c *Context) searchSubject(subj []byte, words []uint64, cutoffRaw int, work *WorkCounters) []*HSP {
	query := c.query.Residues
	idx := c.prep.idx
	w := c.s.opts.WordSize
	work.ResiduesScanned += int64(len(subj))
	if len(subj) < w || len(query) < w {
		return nil
	}
	base := c.ensureDiag(len(query)+len(subj)+1, len(subj))
	scan := subjectScan{c: c, subj: subj, cutoffRaw: cutoffRaw, work: work, boxes: c.boxes[:0]}

	diag, qLen := c.diag, len(query)
	twoHit := c.s.opts.TwoHitWindow
	offsets, positions := idx.offsets, idx.positions
	hits := 0
	// words[j] ends the word that starts at sPos = j-w+1.
	for sPos, id := range words[w-1:] {
		var seeds []int32
		if idx.dense {
			seeds = positions[offsets[id]:offsets[id+1]]
		} else {
			seeds = idx.lookupSparse(id)
		}
		hits += len(seeds)
		at := sPos + base
		for _, qPos := range seeds {
			ds := &diag[sPos-int(qPos)+qLen]
			if at < int(ds.extLevel) {
				continue // inside a region already covered by an extension
			}
			if twoHit > 0 {
				gap := at - int(ds.lastHit)
				if gap > twoHit {
					// First hit on this diagonal (or the previous one is out of
					// range): remember it and wait for a second hit.
					ds.lastHit = int32(at)
					continue
				}
				if gap < w {
					// Overlaps the remembered hit. Do NOT overwrite it —
					// otherwise densely spaced hits (as in near-identical
					// regions) would keep resetting the window and never
					// qualify. This mirrors the NCBI diagonal array.
					continue
				}
				ds.lastHit = int32(at)
			}
			ds.extLevel = int32(scan.extend(int(qPos), sPos) + base)
		}
	}
	work.SeedHits += int64(hits)

	c.boxes = scan.boxes[:0]
	return cullContained(scan.hsps)
}

// subjectScan is the part of one subject's scan that outlives a seed hit:
// what the extensions read and what they have found so far.
type subjectScan struct {
	c         *Context
	subj      []byte
	cutoffRaw int
	work      *WorkCounters
	hsps      []*HSP
	// boxes of the gapped HSPs found so far, for seed containment skipping;
	// the backing array is context scratch reused across subjects.
	boxes []hspBox
}

// extend grows the qualifying seed hit at (qPos, sPos): without gaps first,
// then with gaps if that scored high enough. It returns the subject offset
// the ungapped extension reached, the diagonal's new extension level.
func (ss *subjectScan) extend(qPos, sPos int) int {
	c, query := ss.c, ss.c.query.Residues
	seg := extendUngapped(query, ss.subj, qPos, sPos, c.s.opts.Matrix, c.s.xdropUngapped, ss.work)
	if seg.score >= c.s.gapTrigger {
		// Skip if the seed midpoint is inside an HSP we already have.
		for _, b := range ss.boxes {
			if seg.seedQ >= b.q0 && seg.seedQ < b.q1 && seg.seedS >= b.s0 && seg.seedS < b.s1 {
				return seg.sTo
			}
		}
		h := c.gappedFromSeed(query, ss.subj, seg.seedQ, seg.seedS, ss.work)
		if h != nil && h.Score >= ss.cutoffRaw {
			ss.hsps = append(ss.hsps, h)
			ss.boxes = append(ss.boxes, hspBox{h.QueryFrom, h.QueryTo, h.SubjFrom, h.SubjTo})
		}
	} else if seg.score >= ss.cutoffRaw {
		// Significant without gaps: keep as an ungapped HSP. The trace
		// is implicit (all OpSub) — synthesized lazily at render time
		// instead of materialized per HSP.
		ss.hsps = append(ss.hsps, &HSP{
			QueryFrom: seg.qFrom, QueryTo: seg.qTo,
			SubjFrom: seg.sFrom, SubjTo: seg.sTo,
			Score: seg.score,
		})
	}
	return seg.sTo
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
