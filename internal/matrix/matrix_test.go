package matrix

import (
	"testing"

	"parblast/internal/seq"
)

func TestBlosum62Symmetry(t *testing.T) {
	n := BLOSUM62.Size()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if BLOSUM62.Score(byte(i), byte(j)) != BLOSUM62.Score(byte(j), byte(i)) {
				t.Fatalf("BLOSUM62 asymmetric at (%c,%c)",
					seq.ProteinAlphabet.Letter(byte(i)), seq.ProteinAlphabet.Letter(byte(j)))
			}
		}
	}
}

func TestBlosum62KnownValues(t *testing.T) {
	code := seq.ProteinAlphabet.Code
	cases := []struct {
		a, b byte
		want int
	}{
		{'A', 'A', 4}, {'W', 'W', 11}, {'C', 'C', 9},
		{'A', 'R', -1}, {'W', 'C', -2}, {'E', 'D', 2},
		{'I', 'L', 2}, {'K', 'R', 2}, {'X', 'X', -1},
		{'*', '*', 1}, {'A', '*', -4},
	}
	for _, c := range cases {
		if got := BLOSUM62.Score(code(c.a), code(c.b)); got != c.want {
			t.Fatalf("BLOSUM62[%c][%c] = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestBlosum62DiagonalDominance(t *testing.T) {
	// Every strict residue must like itself at least as much as any
	// substitution — a basic sanity property of log-odds matrices.
	for i := 0; i < seq.ProteinAlphabet.StrictSize(); i++ {
		self := BLOSUM62.Score(byte(i), byte(i))
		if self <= 0 {
			t.Fatalf("self score of %c is %d", seq.ProteinAlphabet.Letter(byte(i)), self)
		}
		for j := 0; j < seq.ProteinAlphabet.StrictSize(); j++ {
			if j != i && BLOSUM62.Score(byte(i), byte(j)) > self {
				t.Fatalf("substitution (%d,%d) beats identity", i, j)
			}
		}
	}
}

func TestBlosum62ExpectedScoreNegative(t *testing.T) {
	// The expected score under uniform residue usage must be negative or
	// local alignment statistics do not apply.
	sum := 0
	n := seq.ProteinAlphabet.StrictSize()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sum += BLOSUM62.Score(byte(i), byte(j))
		}
	}
	if sum >= 0 {
		t.Fatalf("expected BLOSUM62 mean score < 0, got sum %d", sum)
	}
}

// TestMinMaxScore pins the extremes of the BLOSUM62 table.
func TestMinMaxScore(t *testing.T) {
	n := BLOSUM62.Size()
	hi, lo := BLOSUM62.Score(0, 0), BLOSUM62.Score(0, 0)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			hi = max(hi, BLOSUM62.Score(byte(i), byte(j)))
			lo = min(lo, BLOSUM62.Score(byte(i), byte(j)))
		}
	}
	if hi != 11 || lo != -4 {
		t.Fatalf("max, min = %d, %d, want 11 (W/W), -4", hi, lo)
	}
}

func TestRowAliasesMatrix(t *testing.T) {
	row := BLOSUM62.Row(0)
	if int(row[0]) != BLOSUM62.Score(0, 0) {
		t.Fatal("Row(0)[0] disagrees with Score(0,0)")
	}
	if len(row) != BLOSUM62.Size() {
		t.Fatalf("row length %d", len(row))
	}
}

func TestNewDNA(t *testing.T) {
	m := NewDNA(2, -3)
	code := seq.DNAAlphabet.Code
	if m.Score(code('A'), code('A')) != 2 {
		t.Fatal("match score wrong")
	}
	if m.Score(code('A'), code('C')) != -3 {
		t.Fatal("mismatch score wrong")
	}
	if m.Score(code('N'), code('A')) != -3 {
		t.Fatal("wildcard should score as mismatch")
	}
	if m.Alphabet() != seq.DNAAlphabet {
		t.Fatal("alphabet wrong")
	}
}

func TestGapPenalties(t *testing.T) {
	if err := (GapPenalties{Open: 11, Extend: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (GapPenalties{Open: 11, Extend: 0}).Validate(); err == nil {
		t.Fatal("zero extend accepted")
	}
	if err := (GapPenalties{Open: -1, Extend: 1}).Validate(); err == nil {
		t.Fatal("negative open accepted")
	}
}
