package blast

import (
	"math/rand"
	"testing"

	"parblast/internal/seq"
)

// TestWordRollMatchesWindow: at every position of a sequence, the id rolled
// forward by subtraction equals the id computed from scratch over the
// residues in the window — through ambiguity residues, which empty it, and
// for every word size either alphabet allows.
func TestWordRollMatchesWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, tc := range []struct {
		alpha    *seq.Alphabet
		wLo, wHi int
	}{
		{seq.ProteinAlphabet, 2, 5},
		{seq.DNAAlphabet, 4, 12},
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
					}
				}
				if len(s) > 100 && words == 0 {
					t.Fatalf("%s w=%d: no full word in %d residues; the test is vacuous", tc.alpha.Kind(), w, len(s))
				}
			}
		}
	}
}
