package blast

import (
	"math/rand"
	"reflect"
	"testing"

	"parblast/internal/seq"
	"parblast/internal/stats"
)

// backTranslate builds a DNA sequence coding for the protein residues
// (choosing one codon per residue).
func backTranslate(t *testing.T, prot []byte) []byte {
	t.Helper()
	codonFor := map[byte]string{
		'A': "GCT", 'R': "CGT", 'N': "AAT", 'D': "GAT", 'C': "TGT",
		'Q': "CAA", 'E': "GAA", 'G': "GGT", 'H': "CAT", 'I': "ATT",
		'L': "CTT", 'K': "AAA", 'M': "ATG", 'F': "TTT", 'P': "CCT",
		'S': "TCT", 'T': "ACT", 'W': "TGG", 'Y': "TAT", 'V': "GTT",
	}
	var letters []byte
	for _, c := range prot {
		codon, ok := codonFor[seq.ProteinAlphabet.Letter(c)]
		if !ok {
			t.Fatalf("no codon for residue %d", c)
		}
		letters = append(letters, codon...)
	}
	codes, err := seq.DNAAlphabet.Encode(letters)
	if err != nil {
		t.Fatal(err)
	}
	return codes
}

func TestTranslatedSearchFindsProteinInForwardFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	frag := testFragment(rng, 12, 300)
	target := frag.Subjects[5].Residues[50:130] // 80 residues of subject 5

	dna := &seq.Sequence{ID: "dnaq", Residues: backTranslate(t, target), Alpha: seq.DNAAlphabet}
	s, err := NewSearcher(DefaultProteinOptions())
	if err != nil {
		t.Fatal(err)
	}
	space := stats.NewSearchSpace(s.GappedParams(), len(target), frag.TotalResidues(), len(frag.Subjects))
	res, err := SearchTranslatedQuery(s, dna, frag, space)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("translated search found nothing")
	}
	top := res.Hits[0]
	if top.Hit.OID != 5 {
		t.Fatalf("top hit OID %d, want 5", top.Hit.OID)
	}
	if top.Frame != 1 {
		t.Fatalf("top hit frame %+d, want +1", top.Frame)
	}
	ident, _, _ := top.Hit.HSPs[0].Identity(mustFrame(t, dna, 1), frag.Subjects[5].Residues, s.Options().Matrix)
	if ident < 75 {
		t.Fatalf("identities = %d, want ≥75", ident)
	}
}

func TestTranslatedSearchFindsReverseStrand(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	frag := testFragment(rng, 12, 300)
	target := frag.Subjects[8].Residues[20:90]

	forward := backTranslate(t, target)
	dna := &seq.Sequence{ID: "rq", Residues: seq.ReverseComplement(forward), Alpha: seq.DNAAlphabet}
	s, _ := NewSearcher(DefaultProteinOptions())
	space := stats.NewSearchSpace(s.GappedParams(), len(target), frag.TotalResidues(), len(frag.Subjects))
	res, err := SearchTranslatedQuery(s, dna, frag, space)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("reverse-strand homolog not found")
	}
	top := res.Hits[0]
	if top.Hit.OID != 8 || top.Frame != -1 {
		t.Fatalf("top hit OID=%d frame=%+d, want OID=8 frame=-1", top.Hit.OID, top.Frame)
	}
}

func TestTranslatedSearchValidation(t *testing.T) {
	s, _ := NewSearcher(DefaultProteinOptions())
	prot := proteinSeq("p", []byte{0, 1, 2})
	if _, err := SearchTranslatedQuery(s, prot, &Fragment{}, stats.SearchSpace{}); err == nil {
		t.Fatal("protein query accepted by translated search")
	}
	dnaSearcher, _ := NewSearcher(DefaultDNAOptions())
	dna := &seq.Sequence{ID: "d", Residues: []byte{0, 1, 2, 3}, Alpha: seq.DNAAlphabet}
	if _, err := SearchTranslatedQuery(dnaSearcher, dna, &Fragment{}, stats.SearchSpace{}); err == nil {
		t.Fatal("DNA searcher accepted by translated search")
	}
}

func mustFrame(t *testing.T, dna *seq.Sequence, frame int) []byte {
	t.Helper()
	out, err := seq.Translate(dna.Residues, frame)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestTranslatedDBSearchFindsEmbeddedGene(t *testing.T) {
	// tblastn: a protein query finds the DNA subject that encodes it,
	// even when the gene sits on the reverse strand.
	rng := rand.New(rand.NewSource(9))
	query := proteinSeq("protq", randomProtein(rng, 60))
	coding := backTranslate(t, query.Residues)

	randDNA := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(rng.Intn(4))
		}
		return out
	}
	frag := &Fragment{}
	for i := 0; i < 8; i++ {
		frag.Subjects = append(frag.Subjects, Subject{
			OID: i, ID: "dna" + itoa(i), Residues: randDNA(600),
		})
	}
	// Subject 2: gene on the forward strand, in-frame at offset 99 (frame +1).
	copy(frag.Subjects[2].Residues[99:], coding)
	// Subject 6: gene on the reverse strand.
	rc := seq.ReverseComplement(coding)
	copy(frag.Subjects[6].Residues[200:], rc)

	s, _ := NewSearcher(DefaultProteinOptions())
	space := stats.NewSearchSpace(s.GappedParams(), query.Len(), frag.TotalResidues()/3, len(frag.Subjects))
	res, err := SearchTranslatedDB(s, query, frag, space)
	if err != nil {
		t.Fatal(err)
	}
	found := map[int]int{} // OID -> frame of best hit
	for _, fh := range res.Hits {
		if _, ok := found[fh.Hit.OID]; !ok {
			found[fh.Hit.OID] = fh.Frame
		}
	}
	if f, ok := found[2]; !ok || f != 1 {
		t.Fatalf("forward gene not found in frame +1: %v", found)
	}
	if f, ok := found[6]; !ok || f >= 0 {
		t.Fatalf("reverse gene not found on minus strand: %v", found)
	}
}

func TestTranslatedDBValidation(t *testing.T) {
	s, _ := NewSearcher(DefaultProteinOptions())
	dna := &seq.Sequence{ID: "d", Residues: []byte{0, 1, 2, 3}, Alpha: seq.DNAAlphabet}
	if _, err := SearchTranslatedDB(s, dna, &Fragment{}, stats.SearchSpace{}); err == nil {
		t.Fatal("DNA query accepted by tblastn")
	}
	dnaSearcher, _ := NewSearcher(DefaultDNAOptions())
	prot := proteinSeq("p", []byte{0, 1, 2})
	if _, err := SearchTranslatedDB(dnaSearcher, prot, &Fragment{}, stats.SearchSpace{}); err == nil {
		t.Fatal("DNA searcher accepted by tblastn")
	}
}

// TestTranslatedFramesSearchedAsOneBatch: searching the six frame
// translations as one batch gives each frame exactly the hits and work
// counters a search of that frame alone gives, on both strands.
func TestTranslatedFramesSearchedAsOneBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	frag := testFragment(rng, 16, 300)
	forward := backTranslate(t, frag.Subjects[4].Residues[30:120])
	reverse := seq.ReverseComplement(backTranslate(t, frag.Subjects[11].Residues[100:170]))
	s, err := NewSearcher(DefaultProteinOptions())
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, dna := range [][]byte{append(forward, reverse...), forward[1:], reverse[:len(reverse)-2]} {
		query := &seq.Sequence{ID: "dq", Residues: dna, Alpha: seq.DNAAlphabet}
		space := stats.NewSearchSpace(s.GappedParams(), len(dna)/3, frag.TotalResidues(), len(frag.Subjects))
		frames, results, err := searchFrames(s, query, frag, space)
		if err != nil {
			t.Fatal(err)
		}
		translations, err := seq.TranslateAll(query)
		if err != nil {
			t.Fatal(err)
		}
		if len(frames) != len(seq.Frames) {
			t.Fatalf("%d frames searched, want %d", len(frames), len(seq.Frames))
		}
		for i, frame := range frames {
			ctx := s.NewContext()
			if err := ctx.SetQuery(translations[frame]); err != nil {
				t.Fatal(err)
			}
			want, err := ctx.SearchFragment(frag, space)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(results[i], want) {
				t.Fatalf("frame %+d: batch result differs from the frame alone\n got work %+v\nwant work %+v", frame, results[i].Work, want.Work)
			}
			hits += len(want.Hits)
		}
	}
	if hits == 0 {
		t.Fatal("no frame found a hit; the comparison is vacuous")
	}
}
