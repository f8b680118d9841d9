package workload

import (
	"bytes"
	"testing"

	"parblast/internal/seq"
)

func TestSynthesizeDBDeterministic(t *testing.T) {
	cfg := DBConfig{Kind: seq.Protein, NumSeqs: 20, MeanLen: 100, Seed: 7}
	a, err := SynthesizeDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SynthesizeDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].ID != b[i].ID || !bytes.Equal(a[i].Residues, b[i].Residues) {
			t.Fatalf("sequence %d differs between runs", i)
		}
	}
	cfg.Seed = 8
	c, _ := SynthesizeDB(cfg)
	same := true
	for i := range a {
		if !bytes.Equal(a[i].Residues, c[i].Residues) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical databases")
	}
}

func TestSynthesizeDBProperties(t *testing.T) {
	seqs, err := SynthesizeDB(DBConfig{Kind: seq.Protein, NumSeqs: 200, MeanLen: 150, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 200 {
		t.Fatalf("%d sequences", len(seqs))
	}
	var total int
	for _, s := range seqs {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if s.Len() < 75 || s.Len() >= 225 {
			t.Fatalf("length %d outside [75,225)", s.Len())
		}
		for _, c := range s.Residues {
			if int(c) >= seq.ProteinAlphabet.StrictSize() {
				t.Fatal("synthetic sequence contains ambiguity codes")
			}
		}
		total += s.Len()
	}
	mean := total / 200
	if mean < 120 || mean > 180 {
		t.Fatalf("mean length %d far from 150", mean)
	}
}

func TestSynthesizeDNA(t *testing.T) {
	seqs, err := SynthesizeDB(DBConfig{Kind: seq.DNA, NumSeqs: 10, MeanLen: 500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	counts := [4]int{}
	for _, s := range seqs {
		if s.Alpha.Kind() != seq.DNA {
			t.Fatal("wrong alphabet")
		}
		for _, c := range s.Residues {
			counts[c]++
		}
	}
	for b, c := range counts {
		if c == 0 {
			t.Fatalf("base %d never generated", b)
		}
	}
}

func TestResidueFrequenciesRealistic(t *testing.T) {
	// Leucine (L) must be the most common residue and tryptophan (W) the
	// rarest, as in the Robinson frequencies.
	seqs, _ := SynthesizeDB(DBConfig{Kind: seq.Protein, NumSeqs: 100, MeanLen: 300, Seed: 3})
	var counts [20]int
	for _, s := range seqs {
		for _, c := range s.Residues {
			counts[c]++
		}
	}
	l := seq.ProteinAlphabet.Code('L')
	w := seq.ProteinAlphabet.Code('W')
	for i, c := range counts {
		if byte(i) != l && c > counts[l] {
			t.Fatalf("residue %c more common than L", seq.ProteinAlphabet.Letter(byte(i)))
		}
		if byte(i) != w && c < counts[w] {
			t.Fatalf("residue %c rarer than W", seq.ProteinAlphabet.Letter(byte(i)))
		}
	}
}

func TestSampleQueries(t *testing.T) {
	db, _ := SynthesizeDB(DBConfig{Kind: seq.Protein, NumSeqs: 50, MeanLen: 200, Seed: 4})
	qs, err := SampleQueries(db, QueryConfig{TargetBytes: 5000, MeanLen: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	total := int(TotalResidues(qs))
	if total < 5000 || total > 5000+200 {
		t.Fatalf("sampled %d bytes for a 5000-byte target", total)
	}
	// Exact substrings: every query must appear in some DB sequence.
	for _, q := range qs {
		found := false
		for _, s := range db {
			if containsSub(s.Residues, q.Residues) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("query %s is not a substring of any database sequence", q.ID)
		}
	}
}

func containsSub(hay, needle []byte) bool {
	if len(needle) > len(hay) {
		return false
	}
outer:
	for i := 0; i+len(needle) <= len(hay); i++ {
		for j := range needle {
			if hay[i+j] != needle[j] {
				continue outer
			}
		}
		return true
	}
	return false
}

func TestSampleQueriesMutated(t *testing.T) {
	db, _ := SynthesizeDB(DBConfig{Kind: seq.Protein, NumSeqs: 20, MeanLen: 200, Seed: 6})
	qs, err := SampleQueries(db, QueryConfig{TargetBytes: 2000, MeanLen: 100, MutationRate: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// With 30% mutation most queries should no longer be exact substrings.
	exact := 0
	for _, q := range qs {
		for _, s := range db {
			if containsSub(s.Residues, q.Residues) {
				exact++
				break
			}
		}
	}
	if exact > len(qs)/2 {
		t.Fatalf("%d/%d mutated queries still exact", exact, len(qs))
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := SynthesizeDB(DBConfig{NumSeqs: 0, MeanLen: 100}); err == nil {
		t.Fatal("empty DB config accepted")
	}
	db, _ := SynthesizeDB(DBConfig{Kind: seq.Protein, NumSeqs: 5, MeanLen: 50, Seed: 1})
	if _, err := SampleQueries(db, QueryConfig{TargetBytes: 0, MeanLen: 50}); err == nil {
		t.Fatal("zero-byte query config accepted")
	}
	if _, err := SampleQueries(db, QueryConfig{TargetBytes: 100, MeanLen: 50, MutationRate: 2}); err == nil {
		t.Fatal("mutation rate 2 accepted")
	}
	if _, err := SampleQueries(nil, QueryConfig{TargetBytes: 100, MeanLen: 50}); err == nil {
		t.Fatal("empty database accepted")
	}
}

func TestFamilyInterleaving(t *testing.T) {
	// Family members must be spread across the database, not contiguous:
	// contiguous homologs would let one partition own every hit of a
	// query, skewing any database-segmented search.
	cfg := DBConfig{Kind: seq.Protein, NumSeqs: 120, MeanLen: 80, Seed: 11, FamilySize: 6}
	seqs, err := SynthesizeDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Identify each sequence's family by its (mutation-tolerant) best
	// match: members share ≥50% identical positions with their founder,
	// unrelated pairs essentially none. Use member 0 of family 0.
	similar := func(a, b []byte) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		same := 0
		for i := 0; i < n; i++ {
			if a[i] == b[i] {
				same++
			}
		}
		return same*2 > n
	}
	ref := seqs[0].Residues
	var positions []int
	for i, s := range seqs {
		if similar(ref, s.Residues) {
			positions = append(positions, i)
		}
	}
	if len(positions) < 4 {
		t.Fatalf("family not recognisable: %v", positions)
	}
	// Members must NOT be adjacent: minimum spacing ≈ number of families.
	for i := 1; i < len(positions); i++ {
		if positions[i]-positions[i-1] < 5 {
			t.Fatalf("family members adjacent at %v", positions)
		}
	}
}

func TestFamilyMembersAreHomologous(t *testing.T) {
	cfg := DBConfig{Kind: seq.Protein, NumSeqs: 40, MeanLen: 100, Seed: 12, FamilySize: 4}
	seqs, err := SynthesizeDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With 10 families interleaved, members of family f sit at f, f+10,
	// f+20, f+30. Check pairwise identity within one family is high.
	a, b := seqs[3].Residues, seqs[13].Residues
	if len(a) != len(b) {
		t.Fatalf("family members have different lengths: %d vs %d", len(a), len(b))
	}
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if frac := float64(same) / float64(len(a)); frac < 0.6 {
		t.Fatalf("family identity only %.0f%%", frac*100)
	}
}
