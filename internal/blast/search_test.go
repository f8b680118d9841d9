package blast

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"parblast/internal/matrix"
	"parblast/internal/seq"
	"parblast/internal/stats"
)

func proteinSeq(id string, residues []byte) *seq.Sequence {
	return &seq.Sequence{ID: id, Residues: residues, Alpha: seq.ProteinAlphabet}
}

func testFragment(rng *rand.Rand, nSubj, subjLen int) *Fragment {
	frag := &Fragment{}
	for i := 0; i < nSubj; i++ {
		frag.Subjects = append(frag.Subjects, Subject{
			OID:      i,
			ID:       "subj" + string(rune('A'+i%26)) + itoa(i),
			Defline:  "synthetic subject",
			Residues: randomProtein(rng, subjLen),
		})
	}
	return frag
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func spaceFor(s *Searcher, qLen int, frag *Fragment) stats.SearchSpace {
	return stats.NewSearchSpace(s.GappedParams(), qLen, frag.TotalResidues(), len(frag.Subjects))
}

func TestSearchFindsPlantedHomolog(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	frag := testFragment(rng, 20, 400)
	query := proteinSeq("query1", randomProtein(rng, 120))
	// Plant an exact copy of the query inside subject 7.
	copy(frag.Subjects[7].Residues[100:], query.Residues)

	s, err := NewSearcher(DefaultProteinOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := s.NewContext()
	if err := ctx.SetQuery(query); err != nil {
		t.Fatal(err)
	}
	res, err := ctx.SearchFragment(frag, spaceFor(s, query.Len(), frag))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("planted homolog not found")
	}
	top := res.Hits[0]
	if top.OID != 7 {
		t.Fatalf("top hit OID = %d, want 7", top.OID)
	}
	h := top.HSPs[0]
	if h.QueryFrom > 0 || h.QueryTo < query.Len() {
		t.Fatalf("expected full-query alignment, got [%d,%d)", h.QueryFrom, h.QueryTo)
	}
	if h.SubjFrom > 100 || h.SubjTo < 100+query.Len() {
		t.Fatalf("expected alignment covering planted region, got [%d,%d)", h.SubjFrom, h.SubjTo)
	}
	ident, _, _ := h.Identity(query.Residues, frag.Subjects[7].Residues, matrix.BLOSUM62)
	if ident < query.Len() {
		t.Fatalf("expected ≥%d identities, got %d", query.Len(), ident)
	}
	if h.EValue > 1e-10 {
		t.Fatalf("exact 120-residue match should be highly significant, E=%g", h.EValue)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSearchHSPScoreMatchesTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	frag := testFragment(rng, 10, 500)
	query := proteinSeq("q", randomProtein(rng, 150))
	// Plant mutated homologs in several subjects.
	for _, oid := range []int{1, 4, 8} {
		hom := mutate(rng, query.Residues, 0.2)
		if len(hom) > 350 {
			hom = hom[:350]
		}
		copy(frag.Subjects[oid].Residues[50:], hom)
	}
	s, _ := NewSearcher(DefaultProteinOptions())
	ctx := s.NewContext()
	if err := ctx.SetQuery(query); err != nil {
		t.Fatal(err)
	}
	res, err := ctx.SearchFragment(frag, spaceFor(s, query.Len(), frag))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no hits on planted homologs")
	}
	for _, hit := range res.Hits {
		subj := frag.Subjects[hit.OID].Residues
		for _, h := range hit.HSPs {
			if err := h.Validate(); err != nil {
				t.Fatalf("OID %d: %v", hit.OID, err)
			}
			if len(h.Trace) == 0 {
				continue // ungapped segments carry implicit all-sub traces
			}
			ts := scoreFromOps(query.Residues, subj, h.QueryFrom, h.SubjFrom, h.Trace,
				matrix.BLOSUM62, matrix.DefaultProteinGaps)
			if ts != h.Score {
				t.Fatalf("OID %d: trace score %d != reported %d", hit.OID, ts, h.Score)
			}
		}
	}
}

func TestSearchHitOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	frag := testFragment(rng, 30, 300)
	query := proteinSeq("q", randomProtein(rng, 100))
	copy(frag.Subjects[3].Residues[0:], query.Residues)         // perfect
	copy(frag.Subjects[9].Residues[0:], query.Residues[:60])    // partial
	copy(frag.Subjects[15].Residues[100:], query.Residues[:40]) // weaker
	s, _ := NewSearcher(DefaultProteinOptions())
	ctx := s.NewContext()
	if err := ctx.SetQuery(query); err != nil {
		t.Fatal(err)
	}
	res, err := ctx.SearchFragment(frag, spaceFor(s, query.Len(), frag))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) < 2 {
		t.Fatalf("expected ≥2 hits, got %d", len(res.Hits))
	}
	if res.Hits[0].OID != 3 {
		t.Fatalf("best hit should be the perfect copy (OID 3), got %d", res.Hits[0].OID)
	}
	for i := 1; i < len(res.Hits); i++ {
		prev, cur := res.Hits[i-1], res.Hits[i]
		if prev.BestEValue() > cur.BestEValue() {
			t.Fatalf("hits not sorted by E-value at %d: %g > %g", i, prev.BestEValue(), cur.BestEValue())
		}
	}
}

func TestSearchDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	frag := testFragment(rng, 15, 400)
	query := proteinSeq("q", randomProtein(rng, 130))
	copy(frag.Subjects[2].Residues[10:], mutate(rand.New(rand.NewSource(99)), query.Residues, 0.1))
	s, _ := NewSearcher(DefaultProteinOptions())

	run := func() *QueryResult {
		ctx := s.NewContext()
		if err := ctx.SetQuery(query); err != nil {
			t.Fatal(err)
		}
		res, err := ctx.SearchFragment(frag, spaceFor(s, query.Len(), frag))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Hits) != len(b.Hits) {
		t.Fatalf("nondeterministic hit count: %d vs %d", len(a.Hits), len(b.Hits))
	}
	for i := range a.Hits {
		if a.Hits[i].OID != b.Hits[i].OID || a.Hits[i].BestScore() != b.Hits[i].BestScore() {
			t.Fatalf("nondeterministic hit %d", i)
		}
	}
	if a.Work != b.Work {
		t.Fatalf("nondeterministic work counters:\n%+v\n%+v", a.Work, b.Work)
	}
}

func TestSearchPartitionInvariance(t *testing.T) {
	// Searching one fragment must give the same hits as searching its
	// parts and merging — the invariant the parallel engines rely on.
	rng := rand.New(rand.NewSource(14))
	frag := testFragment(rng, 24, 350)
	query := proteinSeq("q", randomProtein(rng, 110))
	for _, oid := range []int{0, 5, 11, 17, 23} {
		copy(frag.Subjects[oid].Residues[20:], mutate(rng, query.Residues, 0.15)[:90])
	}
	s, _ := NewSearcher(DefaultProteinOptions())
	space := spaceFor(s, query.Len(), frag)

	ctx := s.NewContext()
	if err := ctx.SetQuery(query); err != nil {
		t.Fatal(err)
	}
	whole, err := ctx.SearchFragment(frag, space)
	if err != nil {
		t.Fatal(err)
	}

	var merged []*SubjectResult
	for i := 0; i < len(frag.Subjects); i += 7 {
		end := i + 7
		if end > len(frag.Subjects) {
			end = len(frag.Subjects)
		}
		part := &Fragment{Subjects: frag.Subjects[i:end]}
		res, err := ctx.SearchFragment(part, space)
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, res.Hits...)
	}
	SortHits(merged)

	if len(whole.Hits) != len(merged) {
		t.Fatalf("whole search found %d hits, merged parts %d", len(whole.Hits), len(merged))
	}
	for i := range whole.Hits {
		w, m := whole.Hits[i], merged[i]
		if w.OID != m.OID || w.BestScore() != m.BestScore() || w.BestEValue() != m.BestEValue() {
			t.Fatalf("hit %d differs: whole(OID=%d,S=%d) merged(OID=%d,S=%d)",
				i, w.OID, w.BestScore(), m.OID, m.BestScore())
		}
	}
}

func TestOneHitModeFindsSupersetOfTwoHit(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	frag := testFragment(rng, 12, 300)
	query := proteinSeq("q", randomProtein(rng, 90))
	copy(frag.Subjects[4].Residues[30:], query.Residues[:70])

	twoHit := DefaultProteinOptions()
	oneHit := DefaultProteinOptions()
	oneHit.TwoHitWindow = 0

	count := func(o Options) int {
		s, _ := NewSearcher(o)
		ctx := s.NewContext()
		if err := ctx.SetQuery(query); err != nil {
			t.Fatal(err)
		}
		res, err := ctx.SearchFragment(frag, spaceFor(s, query.Len(), frag))
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Hits)
	}
	if c1, c2 := count(oneHit), count(twoHit); c1 < c2 {
		t.Fatalf("one-hit mode found fewer hits (%d) than two-hit (%d)", c1, c2)
	}
}

func TestDNASearch(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	randDNA := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(rng.Intn(4))
		}
		return out
	}
	frag := &Fragment{}
	for i := 0; i < 8; i++ {
		frag.Subjects = append(frag.Subjects, Subject{OID: i, ID: "dna" + itoa(i), Residues: randDNA(2000)})
	}
	q := &seq.Sequence{ID: "dq", Residues: randDNA(300), Alpha: seq.DNAAlphabet}
	copy(frag.Subjects[5].Residues[700:], q.Residues)

	s, err := NewSearcher(DefaultDNAOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := s.NewContext()
	if err := ctx.SetQuery(q); err != nil {
		t.Fatal(err)
	}
	res, err := ctx.SearchFragment(frag, spaceFor(s, q.Len(), frag))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 || res.Hits[0].OID != 5 {
		t.Fatalf("DNA search did not find planted match: %d hits", len(res.Hits))
	}
	h := res.Hits[0].HSPs[0]
	if h.QueryTo-h.QueryFrom < 290 {
		t.Fatalf("DNA alignment too short: [%d,%d)", h.QueryFrom, h.QueryTo)
	}
}

// TestSearcherRejectsBadOptions: an illegal option is rejected up front; a
// non-finite cutoff, which every "<= 0" test lets through, by its name.
func TestSearcherRejectsBadOptions(t *testing.T) {
	cases := []struct {
		mod  func(*Options)
		name string // the field the error must name ("" = any error)
	}{
		{func(o *Options) { o.Matrix = nil }, ""},
		{func(o *Options) { o.WordSize = 0 }, ""},
		{func(o *Options) { o.WordSize = 9 }, ""}, // too large for protein
		{func(o *Options) { o.EValue = 0 }, ""},
		{func(o *Options) { o.Gaps.Extend = 0 }, ""},
		{func(o *Options) { o.XDropGapped = -1 }, ""},
		{func(o *Options) { o.EValue = math.NaN() }, "EValue"},
		{func(o *Options) { o.EValue = math.Inf(1) }, "EValue"},
		{func(o *Options) { o.XDropUngapped = math.NaN() }, "XDropUngapped"},
		{func(o *Options) { o.XDropGapped = math.NaN() }, "XDropGapped"},
		{func(o *Options) { o.GapTriggerBits = math.NaN() }, "GapTriggerBits"},
		{func(o *Options) { o.GapTriggerBits = math.Inf(-1) }, "GapTriggerBits"},
		// Each used to run: a negative window as one-hit seeding, an unknown
		// format as the pairwise report.
		{func(o *Options) { o.TwoHitWindow = -5 }, "TwoHitWindow"},
		{func(o *Options) { o.TwoHitWindow = 1<<20 + 1 }, "TwoHitWindow"},
		{func(o *Options) { o.OutFormat = 7 }, "OutFormat"},
		{func(o *Options) { o.OutFormat = -1 }, "OutFormat"},
	}
	for i, tc := range cases {
		o := DefaultProteinOptions()
		tc.mod(&o)
		_, err := NewSearcher(o)
		if err == nil {
			t.Fatalf("case %d: bad options accepted", i)
		}
		if !strings.Contains(err.Error(), tc.name) {
			t.Fatalf("case %d: error %q does not name %s", i, err, tc.name)
		}
	}
}

// TestSearchQueryAlphabetMismatch: a query the searcher cannot take is
// rejected, and a load that fails must not leave the previous query loaded —
// a caller that dropped the error would otherwise silently search the old
// query and report it under the old ID. A bank's search refuses the query
// too, and search spaces that do not pair with the queries.
func TestSearchQueryAlphabetMismatch(t *testing.T) {
	s, _ := NewSearcher(DefaultProteinOptions())
	good := proteinSeq("good", randomProtein(rand.New(rand.NewSource(3)), 60))
	dna := &seq.Sequence{ID: "d", Residues: []byte{0, 1, 2, 3}, Alpha: seq.DNAAlphabet}
	cases := []struct {
		name string
		load func(*Context) error
	}{
		{"SetQuery alphabet mismatch", func(c *Context) error { return c.SetQuery(dna) }},
	}
	for _, tc := range cases {
		ctx := s.NewContext()
		if err := ctx.SetQuery(good); err != nil {
			t.Fatal(err)
		}
		if err := tc.load(ctx); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if qs := ctx.queries; len(qs) != 0 {
			t.Errorf("%s: query %q still loaded after the failed load", tc.name, qs[0].ID)
		}
		if _, err := ctx.SearchFragment(&Fragment{}, stats.SearchSpace{}); err == nil {
			t.Errorf("%s: SearchFragment ran after the failed load", tc.name)
		}
	}
	bank, err := NewQueryBank(DefaultProteinOptions())
	if err != nil {
		t.Fatal(err)
	}
	one := []stats.SearchSpace{{}}
	if _, err := bank.Search(nil, []*seq.Sequence{dna}, &Fragment{}, one); err == nil || !strings.Contains(err.Error(), "alphabet") {
		t.Errorf("a bank searched a DNA query with a protein matrix: %v", err)
	}
	if _, err := bank.Search(nil, []*seq.Sequence{good}, &Fragment{}, append(one, one...)); err == nil {
		t.Error("a bank searched one query with two search spaces")
	}
}

func TestSearchFragmentBeforeSetQuery(t *testing.T) {
	s, _ := NewSearcher(DefaultProteinOptions())
	ctx := s.NewContext()
	if _, err := ctx.SearchFragment(&Fragment{}, stats.SearchSpace{}); err == nil {
		t.Fatal("SearchFragment without a query should error")
	}
}

func TestCullContained(t *testing.T) {
	big := &HSP{QueryFrom: 0, QueryTo: 100, SubjFrom: 0, SubjTo: 100, Score: 500}
	inner := &HSP{QueryFrom: 10, QueryTo: 50, SubjFrom: 10, SubjTo: 50, Score: 200}
	disjoint := &HSP{QueryFrom: 150, QueryTo: 200, SubjFrom: 150, SubjTo: 200, Score: 100}
	overlapping := &HSP{QueryFrom: 50, QueryTo: 150, SubjFrom: 50, SubjTo: 150, Score: 90}
	out := cullContained([]*HSP{inner, big, disjoint, overlapping})
	if len(out) != 3 {
		t.Fatalf("expected 3 HSPs after culling, got %d", len(out))
	}
	for _, h := range out {
		if h == inner {
			t.Fatal("contained HSP survived culling")
		}
	}
	if out[0] != big {
		t.Fatal("culled list not sorted best-first")
	}
}

func TestReportFormatting(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	frag := testFragment(rng, 6, 300)
	query := proteinSeq("QRY1", randomProtein(rng, 80))
	query.Description = "test query"
	copy(frag.Subjects[2].Residues[40:], query.Residues)

	s, _ := NewSearcher(DefaultProteinOptions())
	ctx := s.NewContext()
	if err := ctx.SetQuery(query); err != nil {
		t.Fatal(err)
	}
	space := spaceFor(s, query.Len(), frag)
	res, err := ctx.SearchFragment(frag, space)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no hits to format")
	}

	db := DBInfo{Title: "testdb", NumSeqs: 6, TotalLen: frag.TotalResidues()}
	header := RenderHeader(FormatPairwise, seq.Protein, query, db)
	for _, want := range []string{"BLASTP", "Query= QRY1 test query", "(80 letters)", "Database: testdb"} {
		if !strings.Contains(header, want) {
			t.Fatalf("header missing %q:\n%s", want, header)
		}
	}
	summary := RenderSummary(FormatPairwise, res.Hits)
	if !strings.Contains(summary, "Sequences producing significant alignments") {
		t.Fatalf("summary missing banner:\n%s", summary)
	}
	hit := RenderHit(FormatPairwise, query, frag.Subjects[res.Hits[0].OID].Residues, res.Hits[0], matrix.BLOSUM62)
	for _, want := range []string{"Score =", "Expect =", "Identities =", "Query: 1", "Sbjct:"} {
		if !strings.Contains(hit, want) {
			t.Fatalf("hit block missing %q:\n%s", want, hit)
		}
	}
	footer := RenderFooter(FormatPairwise, s.GappedParams(), space, res.Work)
	if !strings.Contains(footer, "Lambda") || !strings.Contains(footer, "Effective search space") {
		t.Fatalf("footer malformed:\n%s", footer)
	}

	// Rendering must be deterministic: pioBLAST's offset computation
	// depends on sizes being reproducible.
	if again := RenderHit(FormatPairwise, query, frag.Subjects[res.Hits[0].OID].Residues, res.Hits[0], matrix.BLOSUM62); again != hit {
		t.Fatal("RenderHit is not deterministic")
	}
}

func TestFormatSummaryNoHits(t *testing.T) {
	out := RenderSummary(FormatPairwise, nil)
	if !strings.Contains(out, "No hits found") {
		t.Fatalf("empty summary missing marker: %q", out)
	}
}

func TestCommaFormatting(t *testing.T) {
	cases := map[int64]string{0: "0", 12: "12", 1234: "1,234", 1234567: "1,234,567", -9876543: "-9,876,543"}
	for in, want := range cases {
		if got := comma(in); got != want {
			t.Fatalf("comma(%d) = %q, want %q", in, got, want)
		}
	}
}

// TotalResidues sums the residue counts of all subjects.
func (f *Fragment) TotalResidues() int64 {
	var n int64
	for i := range f.Subjects {
		n += int64(len(f.Subjects[i].Residues))
	}
	return n
}
