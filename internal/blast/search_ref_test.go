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
// the roll on the searcher, and extend returns the extension level instead
// of storing it.
func (r *refScanner) searchSubjectRef(c *Context, subj []byte, cutoffRaw int, work *WorkCounters) []*HSP {
	query := c.query.Residues
	idx := c.prep.idx
	w := c.s.opts.WordSize
	work.ResiduesScanned += int64(len(subj))
	if len(subj) < w || len(query) < w {
		return nil
	}
	r.ensureDiag(len(query) + len(subj) + 1)
	scan := subjectScan{c: c, subj: subj, cutoffRaw: cutoffRaw, work: work, boxes: c.boxes[:0]}

	diag, epoch := r.diag, r.epoch
	twoHit := c.s.opts.TwoHitWindow
	offsets, positions := idx.offsets, idx.positions
	var id uint64
	run, hits := 0, 0
	for j := range subj {
		if id, run = c.s.roll.next(id, run, subj, j); run < w {
			continue
		}
		var seeds []int32
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

	c.boxes = scan.boxes[:0]
	return cullContained(scan.hsps)
}

// searchFragmentRef is SearchFragment on the sequential path with
// searchSubjectRef as the scan: what every thread count must reproduce.
func (r *refScanner) searchFragmentRef(c *Context, frag *Fragment, space stats.SearchSpace) *QueryResult {
	res := &QueryResult{QueryID: c.query.ID}
	res.Work.Add(c.prep.work)
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
		if len(hsps) > c.s.opts.MaxHSPsPerSubject {
			hsps = hsps[:c.s.opts.MaxHSPsPerSubject]
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
	prepared := make([]*PreparedQuery, len(queries))
	for i, q := range queries {
		if prepared[i], err = ref.Prepare(q); err != nil {
			t.Fatal(err)
		}
	}
	hits, seeds := 0, int64(0)
	check := func(step string, ctx *Context, frag *Fragment) {
		t.Helper()
		for i, q := range queries {
			space := spaceFor(ref, q.Len(), frag)
			if err := refCtx.UsePrepared(q, prepared[i]); err != nil {
				t.Fatal(err)
			}
			want := scanner.searchFragmentRef(refCtx, frag, space)
			if err := ctx.UsePrepared(q, prepared[i]); err != nil {
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
