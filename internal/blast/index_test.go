package blast

import (
	"math/rand"
	"testing"

	"parblast/internal/seq"
)

// TestDNATopWordSeeds: at DNA w = 16 there are 2^32 word ids, the last of
// them all T. A subject whose only full word is that one, surrounded by
// ambiguity residues that leave every other position wordless, must seed
// exactly one hit, there, and report the homology around it.
func TestDNATopWordSeeds(t *testing.T) {
	const w, tee, n = 16, 3, 4 // T's code and N's in DNALetters
	rng := rand.New(rand.NewSource(31))
	strict := func(k int) []byte {
		out := make([]byte, k)
		for i := range out {
			out[i] = byte(rng.Intn(4))
		}
		return out
	}
	run := make([]byte, w)
	for i := range run {
		run[i] = tee
	}
	left, right := strict(40), strict(40)
	query := &seq.Sequence{ID: "top", Residues: append(append(append([]byte{}, left...), run...), right...), Alpha: seq.DNAAlphabet}
	// In the subject's copy of the flanks an N every 12 residues, and next to
	// the run, leaves no 16 strict residues in a row but the run itself.
	leftN, rightN := append([]byte{}, left...), append([]byte{}, right...)
	for i := 0; i < len(left); i += 12 {
		leftN[len(left)-1-i], rightN[i] = n, n
	}
	subj := append(append(append(leftN, run...), rightN...), n)
	opts := DefaultDNAOptions()
	opts.WordSize = w
	s, err := NewSearcher(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := s.NewContext()
	if err := ctx.SetQuery(query); err != nil {
		t.Fatal(err)
	}
	frag := &Fragment{Subjects: []Subject{{OID: 0, ID: "s", Residues: subj}}}
	res, err := ctx.SearchFragment(frag, spaceFor(s, query.Len(), frag))
	if err != nil {
		t.Fatal(err)
	}
	if res.Work.SeedHits != 1 {
		t.Fatalf("%d seed hits, want exactly the top word's one", res.Work.SeedHits)
	}
	if len(res.Hits) != 1 {
		t.Fatalf("%d hits, want the subject", len(res.Hits))
	}
	if h := res.Hits[0].HSPs[0]; h.SubjFrom > len(left) || h.SubjTo < len(left)+w {
		t.Fatalf("HSP [%d,%d) does not cover the run at [%d,%d)", h.SubjFrom, h.SubjTo, len(left), len(left)+w)
	}
}

// TestWordRollMatchesWindow: at every position of a sequence, the id rolled
// forward by subtraction equals the id computed from scratch over the
// residues in the window — through ambiguity residues, which empty it, and
// for every word size either alphabet allows — and no full word's id is the
// roll's none.
func TestWordRollMatchesWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, tc := range []struct {
		alpha    *seq.Alphabet
		wLo, wHi int
	}{
		{seq.ProteinAlphabet, 2, 5},
		{seq.DNAAlphabet, 4, 16},
	} {
		strict := tc.alpha.StrictSize()
		for w := tc.wLo; w <= tc.wHi; w++ {
			roll := newWordRoll(w, strict)
			for trial := 0; trial < 20; trial++ {
				s := make([]byte, 1+rng.Intn(400))
				for i := range s {
					s[i] = byte(rng.Intn(strict))
					if rng.Intn(3*w) == 0 {
						s[i] = byte(strict + rng.Intn(tc.alpha.Size()-strict))
					}
				}
				var id uint64
				run, wantRun, words := 0, 0, 0
				for j := range s {
					id, run = roll.next(id, run, s, j)
					wantRun++
					if int(s[j]) >= strict {
						wantRun = 0
					}
					var want uint64
					for _, c := range s[j+1-min(wantRun, w) : j+1] {
						want = want*uint64(strict) + uint64(c)
					}
					if run != wantRun || id != want {
						t.Fatalf("%s w=%d position %d of %v: rolled (id %d, run %d), window gives (id %d, run %d)",
							tc.alpha.Kind(), w, j, s, id, run, want, wantRun)
					}
					if run >= w {
						words++
						if id >= roll.none {
							t.Fatalf("%s w=%d: word id %d is not below none = %d", tc.alpha.Kind(), w, id, roll.none)
						}
					}
				}
				if len(s) > 100 && words == 0 {
					t.Fatalf("%s w=%d: no full word in %d residues; the test is vacuous", tc.alpha.Kind(), w, len(s))
				}
			}
		}
	}
}
