package blast

import (
	"math/rand"
	"strings"
	"testing"

	"parblast/internal/seq"
	"parblast/internal/stats"
)

func TestLowComplexityDetectsHomopolymer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	res := randomProtein(rng, 60)
	// Insert a poly-alanine run.
	for i := 20; i < 40; i++ {
		res[i] = 0 // 'A'
	}
	ivs := LowComplexityIntervals(res, seq.ProteinAlphabet, DefaultFilterParams(seq.Protein))
	if len(ivs) == 0 {
		t.Fatal("homopolymer run not detected")
	}
	covered := false
	for _, iv := range ivs {
		if iv.From <= 25 && iv.To >= 35 {
			covered = true
		}
	}
	if !covered {
		t.Fatalf("run not covered by intervals: %v", ivs)
	}
}

func TestLowComplexityLeavesNormalSequenceAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	res := randomProtein(rng, 300)
	ivs := LowComplexityIntervals(res, seq.ProteinAlphabet, DefaultFilterParams(seq.Protein))
	masked := 0
	for _, iv := range ivs {
		masked += iv.To - iv.From
	}
	if masked*20 > len(res) {
		t.Fatalf("random protein masked %d of %d residues", masked, len(res))
	}
}

func TestLowComplexityMergesOverlaps(t *testing.T) {
	res := make([]byte, 40) // all 'A'
	ivs := LowComplexityIntervals(res, seq.ProteinAlphabet, DefaultFilterParams(seq.Protein))
	if len(ivs) != 1 || ivs[0].From != 0 || ivs[0].To != 40 {
		t.Fatalf("expected one merged interval covering everything, got %v", ivs)
	}
}

func TestMaskForSeedingSoft(t *testing.T) {
	res := make([]byte, 30)
	masked, ivs := MaskForSeeding(res, seq.ProteinAlphabet, DefaultFilterParams(seq.Protein))
	if len(ivs) == 0 {
		t.Fatal("nothing masked")
	}
	if &masked[0] == &res[0] {
		t.Fatal("masking mutated the original slice")
	}
	for _, c := range masked {
		if c != seq.ProteinAlphabet.Wildcard() {
			t.Fatal("homopolymer not fully masked")
		}
	}
	for _, c := range res {
		if c != 0 {
			t.Fatal("original residues modified")
		}
	}
	// No intervals → original slice returned untouched.
	rng := rand.New(rand.NewSource(3))
	clean := randomProtein(rng, 100)
	out, ivs2 := MaskForSeeding(clean, seq.ProteinAlphabet, FilterParams{Window: 12, MaxEntropy: 0.1})
	if len(ivs2) != 0 || &out[0] != &clean[0] {
		t.Fatal("clean sequence should pass through unmasked")
	}
}

func TestFilterSuppressesLowComplexityHits(t *testing.T) {
	// A poly-A query against a database with a poly-A region: unfiltered
	// search hits it, filtered search does not — but a real homolog is
	// still found either way.
	rng := rand.New(rand.NewSource(4))
	frag := testFragment(rng, 10, 300)
	for i := 50; i < 120; i++ {
		frag.Subjects[2].Residues[i] = 0 // poly-A region in subject 2
	}
	query := proteinSeq("q", randomProtein(rng, 100))
	for i := 30; i < 70; i++ {
		query.Residues[i] = 0 // poly-A run in the query
	}
	copy(frag.Subjects[7].Residues[100:], query.Residues[:30]) // real homology

	count := func(filter bool) map[int]bool {
		o := DefaultProteinOptions()
		o.FilterLowComplexity = filter
		s, err := NewSearcher(o)
		if err != nil {
			t.Fatal(err)
		}
		ctx := s.NewContext()
		if err := ctx.SetQuery(query); err != nil {
			t.Fatal(err)
		}
		space := stats.NewSearchSpace(s.GappedParams(), query.Len(), frag.TotalResidues(), len(frag.Subjects))
		res, err := ctx.SearchFragment(frag, space)
		if err != nil {
			t.Fatal(err)
		}
		oids := map[int]bool{}
		for _, h := range res.Hits {
			oids[h.OID] = true
		}
		return oids
	}
	unfiltered := count(false)
	filtered := count(true)
	if !unfiltered[2] {
		t.Fatal("unfiltered search should hit the poly-A subject")
	}
	if filtered[2] {
		t.Fatal("filtered search should NOT seed on the poly-A run")
	}
	if !filtered[7] {
		t.Fatal("filtered search lost the real homolog")
	}
}

func TestTabularRendering(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	frag := testFragment(rng, 6, 300)
	query := proteinSeq("QTAB", randomProtein(rng, 80))
	copy(frag.Subjects[3].Residues[40:], query.Residues)

	s, _ := NewSearcher(DefaultProteinOptions())
	ctx := s.NewContext()
	if err := ctx.SetQuery(query); err != nil {
		t.Fatal(err)
	}
	space := stats.NewSearchSpace(s.GappedParams(), query.Len(), frag.TotalResidues(), len(frag.Subjects))
	res, err := ctx.SearchFragment(frag, space)
	if err != nil || len(res.Hits) == 0 {
		t.Fatalf("no hits: %v", err)
	}

	header := RenderHeader(FormatTabular, seq.Protein, query, DBInfo{Title: "tdb", NumSeqs: 6})
	for _, want := range []string{"# BLASTP", "# Query: QTAB", "# Database: tdb", "# Fields: query id"} {
		if !contains(header, want) {
			t.Fatalf("tabular header missing %q:\n%s", want, header)
		}
	}
	summary := RenderSummary(FormatTabular, res.Hits)
	if !contains(summary, "hits found") {
		t.Fatalf("tabular summary: %q", summary)
	}
	top := res.Hits[0]
	line := RenderHit(FormatTabular, query, frag.Subjects[top.OID].Residues, top, s.Options().Matrix)
	fields := splitTabs(line)
	if len(fields) != 12 {
		t.Fatalf("tabular line has %d fields: %q", len(fields), line)
	}
	if fields[0] != "QTAB" || fields[1] != top.ID {
		t.Fatalf("ids wrong: %v", fields[:2])
	}
	// The planted hit is a perfect copy: 100.00%% identity, 0 mismatches,
	// 0 gap opens.
	if fields[2] != "100.00" || fields[4] != "0" || fields[5] != "0" {
		t.Fatalf("perfect hit fields wrong: %v", fields)
	}
	// Coordinates are 1-based inclusive.
	if fields[6] != "1" || fields[7] != "80" {
		t.Fatalf("query coordinates wrong: %v", fields[6:8])
	}
	if RenderFooter(FormatTabular, s.GappedParams(), space, res.Work) != "" {
		t.Fatal("tabular footer must be empty")
	}
	// Pairwise dispatch unchanged.
	if RenderHeader(FormatPairwise, seq.Protein, query, DBInfo{Title: "tdb"}) !=
		RenderHeader(FormatPairwise, seq.Protein, query, DBInfo{Title: "tdb"}) {
		t.Fatal("pairwise dispatch broken")
	}
	if FormatTabular.String() != "tabular" || FormatPairwise.String() != "pairwise" {
		t.Fatal("format names wrong")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}

func splitTabs(line string) []string {
	line = strings.TrimSuffix(line, "\n")
	// Only the first HSP line.
	if i := strings.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	return strings.Split(line, "\t")
}
