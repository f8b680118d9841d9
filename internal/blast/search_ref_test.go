package blast

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"parblast/internal/seq"
	"parblast/internal/stats"
)

// refDiagState and refScanner are the diagonal bookkeeping searchSubjectRef
// keeps: one epoch stamp per diagonal, checked and reset on every hit.
type refDiagState struct {
	lastHit  int32 // subject offset of the hit a second one must pair with
	extLevel int32 // subject offset the last extension on the diagonal reached
	stamp    int32 // epoch the two fields above belong to
}

type refScanner struct {
	diag  []refDiagState
	epoch int32
}

func (r *refScanner) ensureDiag(n int) {
	if len(r.diag) < n {
		r.diag = make([]refDiagState, max(n, 2*len(r.diag)))
		r.epoch = 0
	}
	r.epoch++
	if r.epoch == math.MaxInt32 {
		clear(r.diag)
		r.epoch = 1
	}
}

// searchSubjectRef is searchSubject as it stood before subjects were encoded
// once per fragment and diagonals reset by offset: it rolls every word id
// itself, per (query, subject), and stamps each diagonal it touches with the
// subject's epoch. It is kept verbatim as the oracle of
// TestSearchSubjectDifferential, except that its diagonal state lives in r,
// the roll on the searcher, extend returns the extension level instead of
// storing it, and it reads the loaded query's positions off the one-query
// batch index, whose entries (query 0's) are bare positions and which has no
// table to probe when it has no entry.
func (r *refScanner) searchSubjectRef(c *Context, subj []byte, cutoffRaw int, work *WorkCounters) []*HSP {
	query := c.queries[0].Residues
	idx := &c.prep.groups[0]
	w := c.s.opts.WordSize
	work.ResiduesScanned += int64(len(subj))
	if len(subj) < w || len(query) < w || len(idx.entries) == 0 {
		return nil
	}
	r.ensureDiag(len(query) + len(subj) + 1)
	scan := subjectScan{c: c, query: query, subj: subj, cutoffRaw: cutoffRaw, work: work}

	diag, epoch := r.diag, r.epoch
	twoHit := c.s.opts.TwoHitWindow
	offsets, positions := idx.offsets, idx.entries
	var id uint64
	run, hits := 0, 0
	for j := range subj {
		if id, run = c.s.roll.next(id, run, subj, j); run < w {
			continue
		}
		var seeds []uint32
		if idx.dense {
			seeds = positions[offsets[id]:offsets[id+1]]
		} else {
			seeds = idx.lookupSparse(id)
		}
		hits += len(seeds)
		sPos := j - w + 1
		for _, qPos := range seeds {
			ds := &diag[sPos-int(qPos)+len(query)]
			if ds.stamp != epoch {
				*ds = refDiagState{lastHit: -1 << 30, stamp: epoch}
			}
			if int32(sPos) < ds.extLevel {
				continue // inside a region already covered by an extension
			}
			if twoHit > 0 {
				gap := sPos - int(ds.lastHit)
				if gap > twoHit {
					// First hit on this diagonal (or the previous one is out of
					// range): remember it and wait for a second hit.
					ds.lastHit = int32(sPos)
					continue
				}
				if gap < w {
					// Overlaps the remembered hit. Do NOT overwrite it —
					// otherwise densely spaced hits (as in near-identical
					// regions) would keep resetting the window and never
					// qualify. This mirrors the NCBI diagonal array.
					continue
				}
				ds.lastHit = int32(sPos)
			}
			ds.extLevel = int32(scan.extend(int(qPos), sPos))
		}
	}
	work.SeedHits += int64(hits)
	return cullContained(scan.hsps)
}

// searchFragmentRef is SearchFragment on the sequential path with
// searchSubjectRef as the scan: what every thread count must reproduce.
func (r *refScanner) searchFragmentRef(c *Context, frag *Fragment, space stats.SearchSpace) *QueryResult {
	res := &QueryResult{QueryID: c.queries[0].ID}
	res.Work.Add(c.prep.work[0])
	cutoffRaw := c.s.gp.ScoreForEValue(c.s.opts.EValue, space)
	for i := range frag.Subjects {
		sub := &frag.Subjects[i]
		hsps := r.searchSubjectRef(c, sub.Residues, cutoffRaw, &res.Work)
		if len(hsps) == 0 {
			continue
		}
		for _, h := range hsps {
			h.BitScore = c.s.gp.BitScore(h.Score)
			h.EValue = c.s.gp.EValue(h.Score, space)
		}
		res.Work.HSPsFound += int64(len(hsps))
		SortHSPs(hsps)
		if len(hsps) > maxHSPsPerSubject {
			hsps = hsps[:maxHSPsPerSubject]
		}
		res.Hits = append(res.Hits, &SubjectResult{OID: sub.OID, ID: sub.ID, Defline: sub.Defline, SubjLen: len(sub.Residues), HSPs: hsps})
	}
	SortHits(res.Hits)
	if len(res.Hits) > c.s.opts.MaxTargetSeqs {
		res.Hits = res.Hits[:c.s.opts.MaxTargetSeqs]
	}
	return res
}

// diffFixture draws the sequences of one alphabet: strict residues with an
// ambiguity code one time in 30, subjects of every length up to 300 (one in
// five shorter than a word), and homologs of the queries planted in some.
type diffFixture struct {
	rng   *rand.Rand
	alpha *seq.Alphabet
	w     int
}

func (f diffFixture) residues(n int) []byte {
	strict := f.alpha.StrictSize()
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(f.rng.Intn(strict))
		if f.rng.Intn(30) == 0 {
			out[i] = byte(strict + f.rng.Intn(f.alpha.Size()-strict))
		}
	}
	return out
}

// plant overwrites part of dst with a copy of src carrying substitutions.
func (f diffFixture) plant(dst, src []byte) {
	at := f.rng.Intn(len(dst))
	n := copy(dst[at:], src[f.rng.Intn(len(src)):])
	for i := 0; i < n; i++ {
		if f.rng.Intn(12) == 0 {
			dst[at+i] = byte(f.rng.Intn(f.alpha.StrictSize()))
		}
	}
}

func (f diffFixture) subjects(queries []*seq.Sequence) []Subject {
	subs := make([]Subject, 10)
	for i := range subs {
		n := f.rng.Intn(300)
		if f.rng.Intn(5) == 0 {
			n = f.rng.Intn(f.w + 1)
		}
		subs[i] = Subject{OID: i, ID: "s" + itoa(i), Residues: f.residues(n)}
		if n > 0 && f.rng.Intn(2) == 0 {
			f.plant(subs[i].Residues, queries[f.rng.Intn(len(queries))].Residues)
		}
	}
	return subs
}

// forceDiagEnd is the test hook for the diagonal base's wrap: it makes c and
// its pool's clones believe values up to end are stored in their arrays.
func forceDiagEnd(c *Context, end int32) {
	c.diagEnd = end
	for _, cl := range c.pool.workers {
		cl.diagEnd = end
	}
}

// TestSearchSubjectDifferential pins the encoded, offset-reset scan to the
// per-query rolling, epoch-stamped reference: the same hits, HSPs and whole
// WorkCounters for both alphabets at every word size, one-hit seeding and
// two-hit windows from 1 to past a word, on every thread count. Each context
// is reused the way the engines reuse one — across queries, across
// fragments, across a Fragment whose Subjects slice was replaced, across a
// bank loan that ended before its fragment was rewritten in place — and its
// diagonal bases are forced across the int32 wrap mid-fragment.
func TestSearchSubjectDifferential(t *testing.T) {
	type grid struct {
		opts   Options
		wLo    int
		wHi    int
		thresh func(w int) int
	}
	for _, g := range []grid{
		{DefaultProteinOptions(), 2, 5, func(w int) int { return 4 * w }},
		{DefaultDNAOptions(), 4, 16, func(int) int { return 0 }},
	} {
		alpha := g.opts.Matrix.Alphabet()
		for w := g.wLo; w <= g.wHi; w++ {
			f := diffFixture{rng: rand.New(rand.NewSource(int64(100 + w))), alpha: alpha, w: w}
			queries := make([]*seq.Sequence, 3)
			for i := range queries {
				queries[i] = &seq.Sequence{ID: "q" + itoa(i), Residues: f.residues(40 + f.rng.Intn(110)), Alpha: alpha}
			}
			fragA := &Fragment{Subjects: f.subjects(queries)}
			fragB := &Fragment{Subjects: f.subjects(queries)}
			replaced := f.subjects(queries)
			hits := 0
			for _, twoHit := range []int{0, 1, w - 1, 40} {
				opts := g.opts
				opts.WordSize, opts.Threshold, opts.TwoHitWindow = w, g.thresh(w), twoHit
				name := fmt.Sprintf("%s w=%d window=%d", alpha.Kind(), w, twoHit)
				hits += testDifferentialGrid(t, name, opts, queries, fragA, fragB, replaced, f)
			}
			if hits == 0 {
				t.Fatalf("%s w=%d: no hit under any window; the comparison is close to vacuous", alpha.Kind(), w)
			}
		}
	}
}

// testDifferentialGrid runs one option set's reuse sequence on every thread
// count and returns how many hits the reference found. fragA is restored
// before it returns.
func testDifferentialGrid(t *testing.T, name string, opts Options, queries []*seq.Sequence, fragA, fragB *Fragment, replaced []Subject, f diffFixture) int {
	t.Helper()
	ref, err := NewSearcher(opts)
	if err != nil {
		t.Fatal(err)
	}
	refCtx, scanner := ref.NewContext(), &refScanner{}
	prepared := make([]*PreparedBatch, len(queries))
	for i, q := range queries {
		if prepared[i], err = ref.prepareBatch([]*seq.Sequence{q}); err != nil {
			t.Fatal(err)
		}
	}
	hits, seeds := 0, int64(0)
	check := func(step string, ctx *Context, frag *Fragment) {
		t.Helper()
		for i, q := range queries {
			space := spaceFor(ref, q.Len(), frag)
			if err := refCtx.UseBatch([]*seq.Sequence{q}, prepared[i]); err != nil {
				t.Fatal(err)
			}
			want := scanner.searchFragmentRef(refCtx, frag, space)
			if err := ctx.UseBatch([]*seq.Sequence{q}, prepared[i]); err != nil {
				t.Fatal(err)
			}
			got, err := ctx.SearchFragment(frag, space)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s threads=%d, %s, query %d: result differs from the reference\n got work %+v\nwant work %+v",
					name, ctx.s.opts.SearchThreads, step, i, got.Work, want.Work)
			}
			hits, seeds = hits+len(want.Hits), seeds+want.Work.SeedHits
		}
	}
	subjectsA := fragA.Subjects
	defer func() { fragA.Subjects = subjectsA }()
	for threads := 1; threads <= 4; threads++ {
		o := opts
		o.SearchThreads = threads
		s, err := NewSearcher(o)
		if err != nil {
			t.Fatal(err)
		}
		ctx := s.NewContext()
		fragA.Subjects = subjectsA
		check("fragment A", ctx, fragA)
		check("fragment B", ctx, fragB)
		check("fragment A again", ctx, fragA)
		fragA.Subjects = replaced
		check("fragment A's subjects replaced", ctx, fragA)
		forceDiagEnd(ctx, math.MaxInt32-900)
		check("diagonal base wrapped", ctx, fragB)

		// A loan ends, the fragment it searched is rewritten in place, and
		// the same context is lent again.
		bank, err := NewQueryBank(o)
		if err != nil {
			t.Fatal(err)
		}
		lent := bank.Lend()
		own := &Fragment{Subjects: f.subjects(queries)}
		check("lent", lent, own)
		bank.TakeBack(lent)
		for i := range own.Subjects {
			copy(own.Subjects[i].Residues, f.residues(len(own.Subjects[i].Residues)))
		}
		if again := bank.Lend(); again != lent {
			t.Fatal("the bank lent a new context with an idle one available")
		}
		check("lent again after the fragment was rewritten", lent, own)
		bank.TakeBack(lent)
	}
	if seeds == 0 {
		t.Fatalf("%s: no seed hit anywhere; the comparison is vacuous", name)
	}
	return hits
}

// batch draws the queries of TestSearchBatchDifferential: lengths far apart
// (a short one first, so that no region can borrow its size), one shorter
// than a word, and one query's residues again under a second ID.
func (f diffFixture) batch() []*seq.Sequence {
	q := func(id string, n int) *seq.Sequence {
		return &seq.Sequence{ID: id, Residues: f.residues(n), Alpha: f.alpha}
	}
	queries := []*seq.Sequence{q("short", 20+f.rng.Intn(20)), q("long", 150+f.rng.Intn(150)), q("below-word", f.w-1)}
	twin := *queries[1]
	twin.ID = "twin"
	return append(queries, &twin, q("mid", 60+f.rng.Intn(80)))
}

// windowSubjects are subjects whose lengths straddle the two-hit window, in
// an order where a subject shorter than the window follows a longer one and
// the reverse, each with a homolog of some query planted: a diagonal region
// sized from the previous subject is too small for the next.
func (f diffFixture) windowSubjects(queries []*seq.Sequence) []Subject {
	lens := []int{240, 30, f.w, 39, 2, 160, 12, 36, 300, f.w + 1}
	subs := make([]Subject, len(lens))
	for i, n := range lens {
		subs[i] = Subject{OID: i, ID: "w" + itoa(i), Residues: f.residues(n)}
		f.plant(subs[i].Residues, queries[f.rng.Intn(len(queries))].Residues)
	}
	return subs
}

// TestSearchBatchDifferential pins the batch scan — one probe per position
// for every query, one diagonal region per query — to one-query searches and
// to the per-query rolling, epoch-stamped reference: for both alphabets at
// every word size, one-hit seeding and two-hit windows from 1 to past a
// word, every query's hits, HSPs and whole WorkCounters are the same, on
// every thread count, after the diagonal bases wrap, and when the batch's
// offsets would pass int32 and it is cut into groups.
func TestSearchBatchDifferential(t *testing.T) {
	type grid struct {
		opts   Options
		wLo    int
		wHi    int
		thresh func(w int) int
	}
	for _, g := range []grid{
		{DefaultProteinOptions(), 2, 5, func(w int) int { return 4 * w }},
		{DefaultDNAOptions(), 4, 16, func(int) int { return 0 }},
	} {
		alpha := g.opts.Matrix.Alphabet()
		for w := g.wLo; w <= g.wHi; w++ {
			f := diffFixture{rng: rand.New(rand.NewSource(int64(300 + w))), alpha: alpha, w: w}
			queries := f.batch()
			frags := []*Fragment{{Subjects: f.windowSubjects(queries)}, {Subjects: f.subjects(queries)}}
			opts := g.opts
			opts.WordSize, opts.Threshold = w, g.thresh(w)
			ix := prepareGrid(t, opts, queries)
			hits := 0
			for _, twoHit := range []int{0, 1, w - 1, 40} {
				opts.TwoHitWindow = twoHit
				name := fmt.Sprintf("%s w=%d window=%d", alpha.Kind(), w, twoHit)
				hits += testBatchGrid(t, name, opts, queries, frags, ix)
			}
			if hits == 0 {
				t.Fatalf("%s w=%d: no hit under any window; the comparison is close to vacuous", alpha.Kind(), w)
			}
		}
	}
}

// gridIndexes are the indexes one word size's grid loads: each query's own,
// the batch's, and the batch's cut into groups. No two-hit window or thread
// count changes an index, so every option set of the grid shares them.
type gridIndexes struct {
	each       []*PreparedBatch
	whole, cut *PreparedBatch
}

func prepareGrid(t *testing.T, opts Options, queries []*seq.Sequence) gridIndexes {
	t.Helper()
	s, err := NewSearcher(opts)
	if err != nil {
		t.Fatal(err)
	}
	ix := gridIndexes{each: make([]*PreparedBatch, len(queries))}
	for i, q := range queries {
		if ix.each[i], err = s.prepareBatch([]*seq.Sequence{q}); err != nil {
			t.Fatal(err)
		}
	}
	if ix.whole, err = s.prepareBatch(queries); err != nil {
		t.Fatal(err)
	}
	ix.cut = cutBatch(t, s, queries, ix.whole)
	return ix
}

// testBatchGrid checks one option set and returns how many hits the
// reference found.
func testBatchGrid(t *testing.T, name string, opts Options, queries []*seq.Sequence, frags []*Fragment, ix gridIndexes) int {
	t.Helper()
	ref, err := NewSearcher(opts)
	if err != nil {
		t.Fatal(err)
	}
	// want[fi][qi]: the reference's result for query qi on frags[fi], which a
	// one-query search must reproduce too.
	want := make([][]*QueryResult, len(frags))
	spaces := make([][]stats.SearchSpace, len(frags))
	refCtx, one, scanner := ref.NewContext(), ref.NewContext(), &refScanner{}
	hits, seeds := 0, int64(0)
	for fi, frag := range frags {
		for i, q := range queries {
			space := spaceFor(ref, q.Len(), frag)
			if err := refCtx.UseBatch([]*seq.Sequence{q}, ix.each[i]); err != nil {
				t.Fatal(err)
			}
			w := scanner.searchFragmentRef(refCtx, frag, space)
			if err := one.UseBatch([]*seq.Sequence{q}, ix.each[i]); err != nil {
				t.Fatal(err)
			}
			if got, err := one.SearchFragment(frag, space); err != nil || !reflect.DeepEqual(got, w) {
				t.Fatalf("%s, fragment %d, %s: a one-query search differs from the reference (%v)", name, fi, q.ID, err)
			}
			want[fi], spaces[fi] = append(want[fi], w), append(spaces[fi], space)
			hits, seeds = hits+len(w.Hits), seeds+w.Work.SeedHits
		}
	}
	if seeds == 0 {
		t.Fatalf("%s: no seed hit anywhere; the comparison is vacuous", name)
	}

	check := func(step string, ctx *Context, fi int) {
		t.Helper()
		got, err := ctx.SearchBatch(nil, frags[fi], spaces[fi])
		if err != nil {
			t.Fatal(err)
		}
		for qi := range queries {
			if !reflect.DeepEqual(got[qi], want[fi][qi]) {
				t.Fatalf("%s threads=%d, %s, fragment %d, %s: batch result differs from the reference\n got work %+v\nwant work %+v",
					name, ctx.s.opts.SearchThreads, step, fi, queries[qi].ID, got[qi].Work, want[fi][qi].Work)
			}
		}
	}
	for threads := 1; threads <= 4; threads++ {
		o := opts
		o.SearchThreads = threads
		s, err := NewSearcher(o)
		if err != nil {
			t.Fatal(err)
		}
		ctx := s.NewContext()
		if err := ctx.UseBatch(queries, ix.whole); err != nil {
			t.Fatal(err)
		}
		check("batch", ctx, 0)
		check("batch", ctx, 1)
		forceDiagEnd(ctx, math.MaxInt32-900)
		check("diagonal base wrapped", ctx, 0)

		if err := ctx.UseBatch(queries, ix.cut); err != nil {
			t.Fatal(err)
		}
		check("cut into groups", ctx, 1)
		check("cut into groups", ctx, 0)
	}
	return hits
}

// cutBatch prepares queries again with maxGroupOffset lowered below what
// whole's one group holds, and checks that the batch was cut into groups
// that each stay within it: consecutive, covering the batch, no entry wrapped.
func cutBatch(t *testing.T, s *Searcher, queries []*seq.Sequence, whole *PreparedBatch) *PreparedBatch {
	t.Helper()
	if len(whole.groups) != 1 {
		t.Fatalf("a small batch was cut into %d groups", len(whole.groups))
	}
	limit := max(len(whole.groups[0].entries)/2, 1)
	defer func(old int) { maxGroupOffset = old }(maxGroupOffset)
	maxGroupOffset = limit
	p, err := s.prepareBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.groups) < 2 {
		t.Fatalf("limit %d left %d group", limit, len(p.groups))
	}
	next := 0
	for _, g := range p.groups {
		if g.first != next || g.n < 1 {
			t.Fatalf("groups do not tile the batch: %d queries from %d, want from %d", g.n, g.first, next)
		}
		next += g.n
		if g.n > 1 && (len(g.entries) > limit || g.n<<g.shift-1 > limit) {
			t.Fatalf("a group of %d queries holds %d entries at shift %d, past the limit %d", g.n, len(g.entries), g.shift, limit)
		}
		for _, e := range g.entries {
			if int(e>>g.shift) >= g.n || int(e&g.mask) >= p.lens[g.first+int(e>>g.shift)] {
				t.Fatalf("entry %#x does not name a position of the group's queries", e)
			}
		}
	}
	if next != len(queries) {
		t.Fatalf("groups cover %d of %d queries", next, len(queries))
	}
	return p
}
