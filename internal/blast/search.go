package blast

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"parblast/internal/matrix"
	"parblast/internal/seq"
	"parblast/internal/stats"
)

// maxHSPsPerSubject caps the HSPs kept per subject.
const maxHSPsPerSubject = 25

// Searcher holds the immutable configuration of a search: options plus the
// raw-score conversions of the bit-valued heuristics. Searchers are safe to
// share; per-goroutine scratch state lives in Context.
type Searcher struct {
	opts Options
	up   stats.Params // ungapped Karlin–Altschul parameters
	gp   stats.Params // gapped parameters (final statistics)
	roll wordRoll     // how word ids are read off a sequence
	tab  *matrixTables

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
	s := &Searcher{opts: opts, up: opts.ungappedParams(), gp: opts.gappedParams(),
		roll: newWordRoll(opts.WordSize, opts.Matrix.Alphabet().StrictSize())}
	bitsToRaw := func(bits float64, p stats.Params) int {
		r := int(math.Ceil(bits * math.Ln2 / p.Lambda))
		if r < 1 {
			r = 1
		}
		return r
	}
	s.tab = tablesFor(opts.Matrix)
	s.xdropUngapped = bitsToRaw(opts.XDropUngapped, s.up)
	s.xdropGapped = bitsToRaw(opts.XDropGapped, s.gp)
	s.xdropFinal = bitsToRaw(opts.XDropFinal, s.gp)
	s.gapTrigger = bitsToRaw(opts.GapTriggerBits, s.up)
	return s, nil
}

// matrixTables is what the kernel reads of a matrix: rows[c], the strict
// residues by descending score against c (ties by code), is the order the
// enumeration walks; scores is the matrix flat, read per ungapped cell.
// atLeast[c][k] counts the strict residues scoring at least lowest+k against
// c, for k up to the best score above lowest: what the enumeration's count
// reads instead of walking a word's last position.
type matrixTables struct {
	rows    [maxStrict][maxStrict]scoredResidue
	scores  scoreTable
	strict  int
	lowest  int
	atLeast [maxStrict][]uint8
}

// countAtLeast is how many strict residues score at least need against c.
func (t *matrixTables) countAtLeast(c byte, need int) int {
	k := need - t.lowest
	if k <= 0 {
		return t.strict
	}
	if k >= len(t.atLeast[c]) {
		return 0
	}
	return int(t.atLeast[c][k])
}

// tables holds one matrixTables per matrix, built on first use: a matrix
// never changes, so its searchers share them and allocate nothing for them.
var tables sync.Map // *matrix.Matrix -> *matrixTables

func tablesFor(m *matrix.Matrix) *matrixTables {
	if t, ok := tables.Load(m); ok {
		return t.(*matrixTables)
	}
	t, strict := &matrixTables{}, m.Alphabet().StrictSize()
	for a := 0; a < m.Size(); a++ {
		copy(t.scores[a<<5:], m.Row(byte(a)))
	}
	for c := 0; c < strict; c++ {
		row := t.rows[c][:strict]
		for d := range row {
			row[d] = scoredResidue{score: t.scores[c<<5|d], code: byte(d)}
		}
		slices.SortStableFunc(row, func(a, b scoredResidue) int { return int(b.score) - int(a.score) })
	}
	t.strict, t.lowest = strict, math.MaxInt
	for c := 0; c < strict; c++ {
		t.lowest = min(t.lowest, int(t.rows[c][strict-1].score))
	}
	for c := 0; c < strict; c++ {
		row := t.rows[c][:strict]
		t.atLeast[c] = make([]uint8, int(row[0].score)-t.lowest+1)
		for k := range t.atLeast[c] {
			for _, r := range row {
				if int(r.score) >= t.lowest+k {
					t.atLeast[c][k]++
				}
			}
		}
	}
	shared, _ := tables.LoadOrStore(m, t)
	return shared.(*matrixTables)
}

// Options returns a copy of the searcher's configuration.
func (s *Searcher) Options() Options { return s.opts }

// GappedParams exposes the statistics used for final scores.
func (s *Searcher) GappedParams() stats.Params { return s.gp }

// Context carries the loaded queries and reusable scratch buffers. The
// queries' word index is not the context's own: it lives in the shared,
// immutable PreparedBatch the context points at. A Context belongs to one
// goroutine; SearchBatch may internally fan subjects out to clone Contexts
// (one per worker goroutine), which it owns and reuses across calls.
type Context struct {
	s *Searcher
	// queries is the loaded batch — the IDs results are reported under and
	// the unmasked residues extensions run over; prep is the index built
	// from residues equal to theirs. A clone shares its owner's slice.
	queries []*seq.Sequence
	prep    *PreparedBatch
	// scans[i] is query i's part of the subject being searched, hits[i] its
	// seed hits in the index group being scanned.
	scans []subjectScan
	hits  []int64

	// Diagonal bookkeeping (scanGroup): values stored past a per-group base
	// (ensureDiag), never above diagEnd, so nothing is cleared.
	diag    []diagState
	diagEnd int32

	// The word ids of wordsOf, the Subjects of the fragment last searched
	// (encode): subject i's are words[starts[i]:starts[i+1]].
	wordsOf []Subject
	words   []uint64
	starts  []int

	// dp is the gapped-extension scratch, reused across all seeds.
	dp dpScratch

	// pool is the intra-rank search pool this context drives when it is the
	// one SearchBatch was called on; a pool's clones leave theirs empty.
	pool searchPool
}

// searchPool is the state of searchParallel, kept across SearchBatch calls
// so that a call allocates nothing for the pool: not its arrays and, because
// each worker's goroutine body is bound once, not its go statements either.
type searchPool struct {
	// workers[0] is the owning context, the rest its clones, created lazily;
	// starts[w] is worker w's goroutine body.
	workers []*Context
	starts  []func()
	wg      sync.WaitGroup

	// The call in flight.
	frag    *Fragment
	cutoffs []int               // per query, raw
	spaces  []stats.SearchSpace // per query
	next    atomic.Int64        // the next subject nobody has claimed yet
	// slots[qi*len(frag.Subjects)+i] is query qi's outcome on subject i;
	// works[w*len(queries)+qi] worker w's tally for query qi.
	slots []*SubjectResult
	works []WorkCounters
}

// diagState is what seeding remembers about one diagonal, kept in one place
// so that a seed hit — almost always one that only updates lastHit — touches
// one cache line. Both are subject offsets plus the subject's diagonal base.
//
// A query's region has fewer slots than a long subject has diagonals, so
// diagonal d shares its slot with d ± k·(region size). That is safe because
// a region holds more than the query's length plus the two-hit window (one
// sized from a longer query of its group only shares less): d is
// hit only at subject offsets [d, d+len(query)), and its extensions end by
// d+len(query), so by the first hit on d + region size the hit d remembers
// is more than a window behind and its extension level is behind the hit,
// exactly as a fresh diagonal's would be.
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

// SetQuery builds the query's word index and loads it, a batch of one. One
// of SetQuery and UseBatch must succeed before a search; each may be called
// repeatedly to reuse the context. On error the context is left with no
// query loaded.
func (c *Context) SetQuery(q *seq.Sequence) error {
	c.unload()
	one := []*seq.Sequence{q}
	p, err := c.s.prepareBatch(one)
	if err != nil {
		return err
	}
	return c.UseBatch(one, p)
}

// UseBatch loads queries with an index prepared earlier — by this searcher,
// from sequences with the same residues in the same order (a QueryBank
// guarantees both). Results are reported under the queries' own IDs. On
// error the context is left with no query loaded.
func (c *Context) UseBatch(queries []*seq.Sequence, p *PreparedBatch) error {
	c.unload()
	if len(queries) != len(p.lens) {
		return fmt.Errorf("blast: %d queries, their prepared index has %d", len(queries), len(p.lens))
	}
	for i, q := range queries {
		if err := c.s.checkAlphabet(q); err != nil {
			return err
		}
		if q.Len() != p.lens[i] {
			return fmt.Errorf("blast: query %q has %d residues, its prepared index %d", q.ID, q.Len(), p.lens[i])
		}
	}
	c.queries, c.prep = append(c.queries, queries...), p
	return nil
}

// unload drops the loaded queries. The pool clones let go of them here too,
// rather than keeping the last batch's index reachable after its bank has
// released it.
func (c *Context) unload() {
	clear(c.queries)
	c.queries = c.queries[:0]
	c.release()
	for _, cl := range c.pool.workers {
		if cl != c {
			cl.queries = nil
			cl.release()
		}
	}
}

// release drops the index and what the scans point at, keeping their
// scratch.
func (c *Context) release() {
	c.prep = nil
	for i := range c.scans {
		c.scans[i] = subjectScan{boxes: c.scans[i].boxes[:0]}
	}
}

// Queries returns the queries currently loaded in the context.
func (c *Context) Queries() []*seq.Sequence { return c.queries }

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
// Subjects slice (first element, length), one encoding serves every search
// against the fragment. A search treats subjects as read-only.
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

// SearchFragment runs the one loaded query against every subject in the
// fragment: SearchBatch over a batch of one.
func (c *Context) SearchFragment(frag *Fragment, space stats.SearchSpace) (*QueryResult, error) {
	if len(c.queries) != 1 {
		return nil, fmt.Errorf("blast: SearchFragment needs one loaded query, not %d", len(c.queries))
	}
	var one [1]*QueryResult
	res, err := c.SearchBatch(one[:0], frag, []stats.SearchSpace{space})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// SearchBatch runs every loaded query against every subject in the fragment,
// scanning each subject once for all of them, and appends one result per
// query, in load order, to dst. spaces[i] is query i's search space; it must
// describe the WHOLE database (not the fragment) so that scores and E-values
// are identical no matter how the database is partitioned — the property the
// parallel engines' merging relies on.
//
// With Options.SearchThreads != 1 a bounded pool of worker goroutines (clone
// Contexts) claims the subjects one at a time. Each subject's search is
// independent and deterministic, and results are reassembled in subject
// order before the canonical sort, so the output is byte-identical for every
// thread count and every claim order, and each query's result is the one a
// batch of that query alone gives.
func (c *Context) SearchBatch(dst []*QueryResult, frag *Fragment, spaces []stats.SearchSpace) ([]*QueryResult, error) {
	if c.prep == nil {
		return dst, fmt.Errorf("blast: search before a query is loaded")
	}
	if len(spaces) != len(c.queries) {
		return dst, fmt.Errorf("blast: %d search spaces for %d queries", len(spaces), len(c.queries))
	}
	c.encode(frag)
	p := &c.pool
	p.cutoffs, p.spaces = p.cutoffs[:0], append(p.spaces[:0], spaces...)
	for _, space := range spaces {
		p.cutoffs = append(p.cutoffs, c.s.gp.ScoreForEValue(c.s.opts.EValue, space))
	}
	nw := c.searchThreads(len(frag.Subjects))
	c.searchParallel(frag, nw)

	nq, ns := len(c.queries), len(frag.Subjects)
	for qi, q := range c.queries {
		res := &QueryResult{QueryID: q.ID, Work: c.prep.work[qi]}
		for w := 0; w < nw; w++ {
			res.Work.Add(p.works[w*nq+qi])
		}
		for _, r := range p.slots[qi*ns : (qi+1)*ns] {
			if r != nil {
				res.Hits = append(res.Hits, r)
			}
		}
		SortHits(res.Hits)
		if len(res.Hits) > c.s.opts.MaxTargetSeqs {
			res.Hits = res.Hits[:c.s.opts.MaxTargetSeqs]
		}
		dst = append(dst, res)
	}
	// The results are the caller's now, the fragment always was.
	clear(p.slots)
	p.frag = nil
	return dst, nil
}

// subjectWords returns subject i's word ids in the current encoding.
func (c *Context) subjectWords(i int) []uint64 { return c.words[c.starts[i]:c.starts[i+1]] }

// searchParallel spreads the fragment's subjects over nw worker contexts, the
// owner being worker 0. Workers claim the next unsearched subject from one
// shared counter, so a fragment whose expensive subjects cluster (a family's
// members sit at a fixed stride in a synthesized database) still keeps every
// worker busy. Which worker searched which subject is host scheduling and
// shows nowhere: slot (query, i) of the result array is subject i's outcome,
// so reassembly preserves the subject order exactly, and the counters are a
// sum of per-subject int64 tallies, which no grouping or order can change.
func (c *Context) searchParallel(frag *Fragment, nw int) {
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
		cl.queries, cl.prep = c.queries, c.prep
	}
	nq, ns := len(c.queries), len(frag.Subjects)
	p.slots = slices.Grow(p.slots[:0], nq*ns)[:nq*ns]
	p.works = append(p.works[:0], make([]WorkCounters, nw*nq)...)
	p.frag = frag
	p.next.Store(0)

	p.wg.Add(nw - 1)
	for _, start := range p.starts[1:nw] {
		go start()
	}
	p.drain(0)
	p.wg.Wait()
}

// drain is worker w's share of the call in flight: whatever subjects it is
// first to claim, scanned through the owning context's encoding.
func (p *searchPool) drain(w int) {
	ctx, owner := p.workers[w], p.workers[0]
	nq, ns := len(owner.queries), len(p.frag.Subjects)
	ctx.beginScans(p.works[w*nq:(w+1)*nq], p.cutoffs)
	for i := int(p.next.Add(1)) - 1; i < ns; i = int(p.next.Add(1)) - 1 {
		sub := &p.frag.Subjects[i]
		ctx.searchSubject(sub.Residues, owner.subjectWords(i))
		for qi := range ctx.scans {
			p.slots[qi*ns+i] = ctx.scans[qi].result(sub, p.spaces[qi])
		}
	}
}

// beginScans points query i's scan at its residues, its cutoff and its
// tally, works[i].
func (c *Context) beginScans(works []WorkCounters, cutoffs []int) {
	c.scans = slices.Grow(c.scans[:0], len(c.queries))[:len(c.queries)]
	c.hits = slices.Grow(c.hits[:0], len(c.queries))[:len(c.queries)]
	for i, q := range c.queries {
		sc := &c.scans[i]
		*sc = subjectScan{c: c, query: q.Residues, cutoffRaw: cutoffs[i], work: &works[i], boxes: sc.boxes[:0]}
	}
}

// searchSubject searches one subject, whose word ids are words, for every
// loaded query: it scans the subject once per index group and leaves each
// query's HSPs in its scan.
func (c *Context) searchSubject(subj []byte, words []uint64) {
	for i := range c.scans {
		sc := &c.scans[i]
		sc.work.ResiduesScanned += int64(len(subj))
		sc.subj, sc.hsps, sc.boxes = subj, nil, sc.boxes[:0]
	}
	if len(subj) < c.s.opts.WordSize {
		return
	}
	for gi := range c.prep.groups {
		if g := &c.prep.groups[gi]; len(g.entries) > 0 {
			c.scanGroup(g, words, len(subj))
		}
	}
}

// scanGroup is the seed scan: one index probe per subject position for all
// of the group's queries, each hit fanned out to its query's diagonals.
//
// Each query of the group has a region of 1<<rs slots, more than the longest
// one plus the window (diagState) or its diagonals: an entry alone addresses
// its slot, k<<rs | (sPos-qPos)&(1<<rs-1) for the group's query k.
//
// The model charges one SeedHit per (query, query position, subject
// position) word match; the host pays per position one probe for the whole
// group (where no word ends it probes an empty row), and per hit only what
// the two-hit rule needs, for nearly every hit one diagState read and one
// store. Only a hit that qualifies for extension leaves the loop, through
// subjectScan.extend.
func (c *Context) scanGroup(g *batchIndex, words []uint64, subjLen int) {
	w, twoHit := c.s.opts.WordSize, c.s.opts.TwoHitWindow
	// An entry has 32 bits, so shift < 32, and so is rs for any region the
	// diagonal array can hold: the masks spare each hit a longer-shift check.
	rs := uint(bits.Len(uint(g.longest+min(twoHit, subjLen)))) & 31
	base := c.ensureDiag(g.n<<rs, subjLen)
	scans, hits := c.scans[g.first:g.first+g.n], c.hits[g.first:g.first+g.n]
	clear(hits)
	diag, region := c.diag, 1<<rs-1
	offsets, entries, shift, mask := g.offsets, g.entries, g.shift&31, g.mask
	// words[j] ends the word that starts at sPos = j-w+1.
	for sPos, id := range words[w-1:] {
		var seeds []uint32
		if g.dense {
			seeds = entries[offsets[id]:offsets[id+1]]
		} else {
			seeds = g.lookupSparse(id)
		}
		at := sPos + base
		for _, e := range seeds {
			k, qPos := int(e>>shift), int(e&mask)
			hits[k]++
			ds := &diag[k<<rs|(sPos-qPos)&region]
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
			ds.extLevel = int32(scans[k].extend(qPos, sPos) + base)
		}
	}
	for i := range scans {
		scans[i].work.SeedHits += hits[i]
	}
}

// subjectScan is one query's part of one subject's search: where its
// diagonals are, what the extensions read and what they have found so far.
type subjectScan struct {
	c         *Context
	query     []byte
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
	c, query := ss.c, ss.query
	seg := extendUngapped(query, ss.subj, qPos, sPos, &c.s.tab.scores, c.s.xdropUngapped, ss.work)
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

// result is the query's outcome on sub, the subject just scanned: its HSPs
// culled, scored against space, sorted and capped — nil when none survives.
func (ss *subjectScan) result(sub *Subject, space stats.SearchSpace) *SubjectResult {
	hsps := cullContained(ss.hsps)
	ss.hsps = nil
	if len(hsps) == 0 {
		return nil
	}
	s := ss.c.s
	for _, h := range hsps {
		h.BitScore = s.gp.BitScore(h.Score)
		h.EValue = s.gp.EValue(h.Score, space)
	}
	ss.work.HSPsFound += int64(len(hsps))
	SortHSPs(hsps)
	if len(hsps) > maxHSPsPerSubject {
		hsps = hsps[:maxHSPsPerSubject]
	}
	return &SubjectResult{
		OID:     sub.OID,
		ID:      sub.ID,
		Defline: sub.Defline,
		SubjLen: len(sub.Residues),
		HSPs:    hsps,
	}
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
