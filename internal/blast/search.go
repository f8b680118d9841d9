package blast

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

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
// goroutine at a time: a standalone one searches on its caller's, one of a
// bank's kernel slots on whichever goroutine holds the slot (QueryBank.run).
type Context struct {
	s *Searcher
	// queries is SetQuery's query; prep is the index being searched.
	queries []*seq.Sequence
	prep    *PreparedBatch
	// scans[i] is query i's part of the subject being searched, hits[i] its
	// seed hits in the index group being scanned, works[i] its tally since
	// beginScans.
	scans []subjectScan
	hits  []int64
	works []WorkCounters

	// Diagonal bookkeeping (scanGroup): values stored past a per-group base
	// (ensureDiag), never above diagEnd, so nothing is cleared.
	diag    []diagState
	diagEnd int32

	// words[j] is the id of the word ending at residue j of the subject
	// being searched (encode).
	words []uint64

	// dp is the gapped-extension scratch, reused across all seeds.
	dp dpScratch
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

// SetQuery builds the query's word index and loads it, a batch of one; it
// must succeed before a search, and may be called repeatedly to reuse the
// context. On error the context is left with no query loaded.
func (c *Context) SetQuery(q *seq.Sequence) error {
	c.unload()
	p, err := c.s.prepareBatch([]*seq.Sequence{q})
	if err != nil {
		return err
	}
	c.queries, c.prep = append(c.queries, q), p
	return nil
}

// unload drops the loaded queries, the index and what the scans point at,
// keeping their scratch.
func (c *Context) unload() {
	clear(c.queries)
	c.queries, c.prep = c.queries[:0], nil
	for i := range c.scans {
		c.scans[i] = subjectScan{boxes: c.scans[i].boxes[:0]}
	}
}

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

// encode makes words hold the id of the word ending at each residue of subj
// (roll.none where none ends) and returns them.
func (c *Context) encode(subj []byte) []uint64 {
	roll, words := c.s.roll, slices.Grow(c.words[:0], len(subj))
	var id uint64
	run := 0
	for j := range subj {
		if id, run = roll.next(id, run, subj, j); run >= roll.w {
			words = append(words, id)
		} else {
			words = append(words, roll.none)
		}
	}
	c.words = words
	return words
}

// SearchFragment runs the one loaded query against every subject in the
// fragment on the caller's goroutine: searchBatch over a batch of one.
func (c *Context) SearchFragment(frag *Fragment, space stats.SearchSpace) (*QueryResult, error) {
	if len(c.queries) != 1 {
		return nil, fmt.Errorf("blast: SearchFragment needs one loaded query, not %d", len(c.queries))
	}
	var one [1]*QueryResult
	return c.searchBatch(one[:0], c.queries, c.prep, frag, []stats.SearchSpace{space})[0], nil
}

// searchBatch runs queries, whose index is p, against every subject of frag
// on the caller's goroutine, scanning each subject once for all of them, and
// appends one result per query, in order, to dst. spaces[i] is query i's
// search space; it must describe the WHOLE database (not the fragment) so
// that scores and E-values are identical no matter how the database is
// partitioned — the property the parallel engines' merging relies on. Each
// subject's search is independent and deterministic, and each query's
// result is the one a batch of that query alone gives.
func (c *Context) searchBatch(dst []*QueryResult, queries []*seq.Sequence, p *PreparedBatch, frag *Fragment, spaces []stats.SearchSpace) []*QueryResult {
	var r request
	r.load(queries, p, frag, spaces)
	c.drain(&r)
	copy(r.work, c.works)
	return c.s.results(dst, &r)
}

// beginScans points the scan of queries[i] at its residues, at the raw
// cutoff of spaces[i] and at its tally, works[i], which it zeroes.
func (c *Context) beginScans(queries []*seq.Sequence, spaces []stats.SearchSpace) {
	n := len(queries)
	c.scans = slices.Grow(c.scans[:0], n)[:n]
	c.hits = slices.Grow(c.hits[:0], n)[:n]
	c.works = slices.Grow(c.works[:0], n)[:n]
	clear(c.works)
	for i, q := range queries {
		sc := &c.scans[i]
		cutoff := c.s.gp.ScoreForEValue(c.s.opts.EValue, spaces[i])
		*sc = subjectScan{c: c, query: q.Residues, cutoffRaw: cutoff, work: &c.works[i], boxes: sc.boxes[:0]}
	}
}

// searchSubject searches one subject for every scanned query: it encodes the
// subject's words, scans it once per index group and leaves each query's
// HSPs in its scan.
func (c *Context) searchSubject(subj []byte) {
	for i := range c.scans {
		sc := &c.scans[i]
		sc.work.ResiduesScanned += int64(len(subj))
		sc.subj, sc.hsps, sc.boxes = subj, nil, sc.boxes[:0]
	}
	if len(subj) < c.s.opts.WordSize {
		return
	}
	words := c.encode(subj)
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
