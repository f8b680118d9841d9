package seq

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestAlphabetRoundTrip(t *testing.T) {
	for _, a := range []*Alphabet{ProteinAlphabet, DNAAlphabet} {
		for i := 0; i < a.Size(); i++ {
			letter := a.Letter(byte(i))
			if got := a.Code(letter); got != byte(i) {
				t.Fatalf("%s: code(letter(%d)) = %d", a.Kind(), i, got)
			}
		}
	}
}

func TestAlphabetCaseInsensitive(t *testing.T) {
	if ProteinAlphabet.Code('a') != ProteinAlphabet.Code('A') {
		t.Fatal("lower-case protein letter maps differently")
	}
	if DNAAlphabet.Code('t') != DNAAlphabet.Code('T') {
		t.Fatal("lower-case DNA letter maps differently")
	}
}

func TestAlphabetAliases(t *testing.T) {
	if ProteinAlphabet.Code('U') != ProteinAlphabet.Code('C') {
		t.Fatal("selenocysteine should score as cysteine")
	}
	if DNAAlphabet.Code('U') != DNAAlphabet.Code('T') {
		t.Fatal("RNA U should map to T")
	}
	if DNAAlphabet.Code('R') != DNAAlphabet.Wildcard() {
		t.Fatal("IUPAC ambiguity code should map to wildcard")
	}
}

func TestEncodeSkipsWhitespaceAndDigits(t *testing.T) {
	codes, err := ProteinAlphabet.Encode([]byte("MK V\n10 LA"))
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	want := "MKVLA"
	if got := string(ProteinAlphabet.Decode(codes)); got != want {
		t.Fatalf("decoded %q, want %q", got, want)
	}
}

func TestEncodeInvalidReportsButContinues(t *testing.T) {
	codes, err := DNAAlphabet.Encode([]byte("ACG?T"))
	if err == nil {
		t.Fatal("expected error for '?'")
	}
	if len(codes) != 5 {
		t.Fatalf("expected 5 codes (invalid → wildcard), got %d", len(codes))
	}
	if codes[3] != DNAAlphabet.Wildcard() {
		t.Fatal("invalid letter should encode as wildcard")
	}
}

func TestStrictSizes(t *testing.T) {
	if ProteinAlphabet.StrictSize() != 20 {
		t.Fatalf("protein strict size = %d", ProteinAlphabet.StrictSize())
	}
	if DNAAlphabet.StrictSize() != 4 {
		t.Fatalf("dna strict size = %d", DNAAlphabet.StrictSize())
	}
}

func TestSequenceValidate(t *testing.T) {
	s := New(ProteinAlphabet, "id1", "desc", "MKVLA")
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Sequence{ID: "", Alpha: ProteinAlphabet}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty ID accepted")
	}
	bad2 := &Sequence{ID: "x", Alpha: ProteinAlphabet, Residues: []byte{200}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("out-of-range code accepted")
	}
	bad3 := &Sequence{ID: "x"}
	if err := bad3.Validate(); err == nil {
		t.Fatal("nil alphabet accepted")
	}
}

func TestDefline(t *testing.T) {
	s := New(ProteinAlphabet, "sp|P1", "some protein", "MK")
	if s.Defline() != "sp|P1 some protein" {
		t.Fatalf("defline %q", s.Defline())
	}
	s2 := New(ProteinAlphabet, "bare", "", "MK")
	if s2.Defline() != "bare" {
		t.Fatalf("defline %q", s2.Defline())
	}
}

func TestGuessKind(t *testing.T) {
	if GuessKind([]byte("ACGTACGTACGTNNNACGT")) != DNA {
		t.Fatal("obvious DNA not recognised")
	}
	if GuessKind([]byte("MKVLAWFQERTYHPSDNIKL")) != Protein {
		t.Fatal("obvious protein not recognised")
	}
	// ACGT-rich protein edge: below the 90% threshold.
	if GuessKind([]byte("ACGTACGTMKMKMKMKMKWW")) != Protein {
		t.Fatal("mixed content should be called protein")
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	// Property: decode(encode(x)) is stable under re-encoding for any
	// letters drawn from the alphabet.
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		letters := make([]byte, len(raw))
		for i, c := range raw {
			letters[i] = ProteinLetters[int(c)%len(ProteinLetters)]
		}
		codes, err := ProteinAlphabet.Encode(letters)
		if err != nil {
			return false
		}
		decoded := ProteinAlphabet.Decode(codes)
		codes2, err := ProteinAlphabet.Encode(decoded)
		if err != nil {
			return false
		}
		return bytes.Equal(codes, codes2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if Protein.String() != "protein" || DNA.String() != "dna" {
		t.Fatal("kind names wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Fatal("unknown kind should include the number")
	}
}

func TestAlphabetFor(t *testing.T) {
	if AlphabetFor(Protein) != ProteinAlphabet || AlphabetFor(DNA) != DNAAlphabet {
		t.Fatal("AlphabetFor returned wrong instance")
	}
}
