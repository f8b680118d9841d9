package blast

import (
	"testing"

	"parblast/internal/matrix"
	"parblast/internal/seq"
	"parblast/internal/stats"
)

// Golden test: the report byte format is part of the system's contract —
// pioBLAST's offset arithmetic depends on every rank rendering identical
// bytes, and EXPERIMENTS.md's output sizes depend on the format staying
// put. If a deliberate format change trips this test, regenerate the
// golden strings.

const goldenQueryLetters = "MKVLAWFQERTYHPSDNIKLMKVLAWFQERTYHPSDNIKLMKVLAWFQERTYHPSDNIKLMKVLAWFQER"

const goldenPairwise = `>S1 golden subject
          Length = 76

 Score = 152.5 bits (384), Expect = 1e-40
 Identities = 70/70 (100%), Positives = 70/70 (100%)

Query: 1     MKVLAWFQERTYHPSDNIKLMKVLAWFQERTYHPSDNIKLMKVLAWFQERTYHPSDNIKL 60
             MKVLAWFQERTYHPSDNIKLMKVLAWFQERTYHPSDNIKLMKVLAWFQERTYHPSDNIKL
Sbjct: 4     MKVLAWFQERTYHPSDNIKLMKVLAWFQERTYHPSDNIKLMKVLAWFQERTYHPSDNIKL 63

Query: 61    MKVLAWFQER 70
             MKVLAWFQER
Sbjct: 64    MKVLAWFQER 73

`

const goldenTabular = "Q1\tS1\t100.00\t70\t0\t0\t1\t70\t4\t73\t1e-40\t152.5\n"

func goldenHit(t *testing.T) (*seq.Sequence, []byte, *SubjectResult, *Searcher) {
	t.Helper()
	query := seq.New(seq.ProteinAlphabet, "Q1", "golden query", goldenQueryLetters)
	subj := seq.New(seq.ProteinAlphabet, "S1", "golden subject", "GGG"+goldenQueryLetters+"PPP")
	s, err := NewSearcher(DefaultProteinOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := s.NewContext()
	if err := ctx.SetQuery(query); err != nil {
		t.Fatal(err)
	}
	frag := &Fragment{Subjects: []Subject{{OID: 0, ID: "S1", Defline: "golden subject", Residues: subj.Residues}}}
	space := stats.NewSearchSpace(s.GappedParams(), query.Len(), 1000000, 2000)
	res, err := ctx.SearchFragment(frag, space)
	if err != nil || len(res.Hits) != 1 {
		t.Fatalf("golden search failed: %v (%d hits)", err, len(res.Hits))
	}
	return query, subj.Residues, res.Hits[0], s
}

func TestGoldenPairwiseBlock(t *testing.T) {
	query, subj, hit, _ := goldenHit(t)
	got := RenderHit(FormatPairwise, query, subj, hit, matrix.BLOSUM62)
	if got != goldenPairwise {
		t.Fatalf("pairwise block format changed:\n--- got ---\n%s--- want ---\n%s", got, goldenPairwise)
	}
}

func TestGoldenTabularLine(t *testing.T) {
	query, subj, hit, _ := goldenHit(t)
	got := RenderHit(FormatTabular, query, subj, hit, matrix.BLOSUM62)
	if got != goldenTabular {
		t.Fatalf("tabular line format changed:\n got %q\nwant %q", got, goldenTabular)
	}
}

func TestGoldenScoreDetails(t *testing.T) {
	// Lock the numeric pipeline: a 70-residue perfect repeat of the test
	// motif scores 384 raw under BLOSUM62 with gapped statistics giving
	// 152.5 bits against the fixed 1e6×2000 search space.
	_, _, hit, _ := goldenHit(t)
	h := hit.HSPs[0]
	if h.Score != 384 {
		t.Fatalf("raw score %d, want 384", h.Score)
	}
	if h.QueryFrom != 0 || h.QueryTo != 70 || h.SubjFrom != 3 || h.SubjTo != 73 {
		t.Fatalf("coordinates changed: q[%d:%d] s[%d:%d]", h.QueryFrom, h.QueryTo, h.SubjFrom, h.SubjTo)
	}
}
