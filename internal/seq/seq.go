// Package seq defines biological sequence alphabets, residue encodings, and
// the Sequence type shared by the database formatter and the BLAST kernel.
//
// Residues are stored in a compact internal encoding: each alphabet maps its
// letters to small consecutive codes so that scoring matrices and word
// indexes can be addressed by code arithmetic instead of byte lookups.
package seq

import "fmt"

// Kind identifies the molecule type of an alphabet or sequence.
type Kind uint8

const (
	// Protein is the 20-letter amino-acid alphabet plus ambiguity codes.
	Protein Kind = iota
	// DNA is the 4-letter nucleotide alphabet plus N.
	DNA
)

// String returns the conventional lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case Protein:
		return "protein"
	case DNA:
		return "dna"
	default:
		return fmt.Sprintf("seq.Kind(%d)", uint8(k))
	}
}

// InvalidCode marks a byte that is not part of the alphabet.
const InvalidCode = 0xFF

// Alphabet maps sequence letters to compact residue codes and back.
// The zero value is not usable; use ProteinAlphabet or DNAAlphabet.
type Alphabet struct {
	kind     Kind
	letters  string    // code -> canonical upper-case letter
	codes    [256]byte // letter -> code, InvalidCode if not a member
	strict   int       // number of unambiguous residues (20 or 4)
	wildcard byte      // code of the ambiguity residue (X or N)
}

// ProteinLetters lists the canonical protein residue order used throughout
// the package: the 20 standard amino acids, then the ambiguity codes.
// Order matters: scoring matrices in internal/matrix use the same order.
const ProteinLetters = "ARNDCQEGHILKMFPSTWYVBZX*"

// DNALetters lists the canonical nucleotide order, then N for ambiguity.
const DNALetters = "ACGTN"

var (
	// ProteinAlphabet is the shared amino-acid alphabet.
	ProteinAlphabet = newAlphabet(Protein, ProteinLetters, 20, 'X')
	// DNAAlphabet is the shared nucleotide alphabet.
	DNAAlphabet = newAlphabet(DNA, DNALetters, 4, 'N')
)

func newAlphabet(kind Kind, letters string, strict int, wildcard byte) *Alphabet {
	a := &Alphabet{kind: kind, letters: letters, strict: strict}
	for i := range a.codes {
		a.codes[i] = InvalidCode
	}
	for i := 0; i < len(letters); i++ {
		up := letters[i]
		a.codes[up] = byte(i)
		a.codes[lower(up)] = byte(i)
	}
	a.wildcard = a.codes[wildcard]
	// Common aliases seen in real FASTA data.
	if kind == Protein {
		a.codes['U'] = a.codes['C'] // selenocysteine -> cysteine score class
		a.codes['u'] = a.codes['C']
		a.codes['O'] = a.codes['K'] // pyrrolysine -> lysine
		a.codes['o'] = a.codes['K']
		a.codes['J'] = a.codes['L'] // leucine/isoleucine ambiguity
		a.codes['j'] = a.codes['L']
		a.codes['-'] = a.wildcard
	} else {
		for _, c := range []byte{'R', 'Y', 'S', 'W', 'K', 'M', 'B', 'D', 'H', 'V'} {
			a.codes[c] = a.wildcard
			a.codes[lower(c)] = a.wildcard
		}
		a.codes['U'] = a.codes['T'] // RNA input
		a.codes['u'] = a.codes['T']
		a.codes['-'] = a.wildcard
	}
	return a
}

func lower(b byte) byte {
	if b >= 'A' && b <= 'Z' {
		return b + 'a' - 'A'
	}
	return b
}

// Kind reports the molecule type of the alphabet.
func (a *Alphabet) Kind() Kind { return a.kind }

// Size returns the total number of residue codes, including ambiguity codes.
func (a *Alphabet) Size() int { return len(a.letters) }

// StrictSize returns the number of unambiguous residues (20 for protein,
// 4 for DNA). Word indexes enumerate only strict residues.
func (a *Alphabet) StrictSize() int { return a.strict }

// Wildcard returns the code of the ambiguity residue (X or N).
func (a *Alphabet) Wildcard() byte { return a.wildcard }

// Code translates a letter to its residue code, or InvalidCode.
func (a *Alphabet) Code(letter byte) byte { return a.codes[letter] }

// Letter translates a residue code back to its canonical letter.
// Codes out of range map to '?'.
func (a *Alphabet) Letter(code byte) byte {
	if int(code) >= len(a.letters) {
		return '?'
	}
	return a.letters[code]
}

// Encode converts letter text into residue codes. Unknown letters become the
// wildcard code; whitespace is skipped. The returned error reports the first
// character that is neither a residue letter nor whitespace (digits and '*'
// stops are tolerated for protein).
func (a *Alphabet) Encode(text []byte) ([]byte, error) {
	out := make([]byte, 0, len(text))
	var firstBad int = -1
	var badChar byte
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		}
		code := a.codes[c]
		if code == InvalidCode {
			if c >= '0' && c <= '9' {
				continue // sequence numbering in some FASTA dialects
			}
			if firstBad < 0 {
				firstBad, badChar = i, c
			}
			code = a.wildcard
		}
		out = append(out, code)
	}
	if firstBad >= 0 {
		return out, fmt.Errorf("seq: invalid %s residue %q at offset %d (treated as wildcard)",
			a.kind, badChar, firstBad)
	}
	return out, nil
}

// Decode converts residue codes back to canonical letters.
func (a *Alphabet) Decode(codes []byte) []byte {
	out := make([]byte, len(codes))
	for i, c := range codes {
		out[i] = a.Letter(c)
	}
	return out
}

// Sequence is one database or query sequence: a definition line plus
// residues in the compact code encoding of its alphabet.
type Sequence struct {
	// ID is the first whitespace-delimited token of the FASTA defline.
	ID string
	// Description is the remainder of the defline (may be empty).
	Description string
	// Residues holds alphabet codes, not letters.
	Residues []byte
	// Alpha is the alphabet the residues are encoded in.
	Alpha *Alphabet
}

// Len returns the number of residues.
func (s *Sequence) Len() int { return len(s.Residues) }

// Defline reconstructs the FASTA definition line without the leading '>'.
func (s *Sequence) Defline() string {
	if s.Description == "" {
		return s.ID
	}
	return s.ID + " " + s.Description
}

// Validate checks internal consistency: a non-empty ID, a known alphabet,
// and all residue codes within the alphabet.
func (s *Sequence) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("seq: sequence with empty ID")
	}
	if s.Alpha == nil {
		return fmt.Errorf("seq: sequence %q has nil alphabet", s.ID)
	}
	for i, c := range s.Residues {
		if int(c) >= s.Alpha.Size() {
			return fmt.Errorf("seq: sequence %q has invalid code %d at %d", s.ID, c, i)
		}
	}
	return nil
}

// New encodes letter text into a Sequence using alphabet a.
// Invalid letters are mapped to the wildcard without error; use
// Alphabet.Encode directly when strictness matters.
func New(a *Alphabet, id, description, letters string) *Sequence {
	codes, _ := a.Encode([]byte(letters))
	return &Sequence{ID: id, Description: description, Residues: codes, Alpha: a}
}

// GuessKind inspects letter text and guesses whether it is DNA or protein:
// if ≥90% of the first 1000 letters are A/C/G/T/N/U it is called DNA.
func GuessKind(text []byte) Kind {
	n := len(text)
	if n > 1000 {
		n = 1000
	}
	acgt, total := 0, 0
	for i := 0; i < n; i++ {
		c := text[i]
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		}
		total++
		switch c {
		case 'A', 'C', 'G', 'T', 'N', 'U', 'a', 'c', 'g', 't', 'n', 'u':
			acgt++
		}
	}
	if total > 0 && acgt*10 >= total*9 {
		return DNA
	}
	return Protein
}

// AlphabetFor returns the shared alphabet instance for a kind.
func AlphabetFor(k Kind) *Alphabet {
	if k == DNA {
		return DNAAlphabet
	}
	return ProteinAlphabet
}
