// Package matrix provides substitution scoring matrices and gap penalty
// schemes for the BLAST kernel.
//
// The protein matrix shipped is BLOSUM62, byte-for-byte the matrix NCBI
// BLAST uses by default, laid out in the residue-code order defined by
// internal/seq (ARNDCQEGHILKMFPSTWYVBZX*). Nucleotide scoring is generated
// from a (match, mismatch) reward/penalty pair, as in blastn.
package matrix

import (
	"fmt"

	"parblast/internal/seq"
)

// Matrix scores residue-code pairs. Scores are addressed as
// Score(a, b) where a and b are seq.Alphabet codes.
type Matrix struct {
	name   string
	alpha  *seq.Alphabet
	n      int
	scores []int16 // n*n row-major
}

// Name returns the conventional matrix name (e.g. "BLOSUM62").
func (m *Matrix) Name() string { return m.name }

// Alphabet returns the alphabet whose codes index the matrix.
func (m *Matrix) Alphabet() *seq.Alphabet { return m.alpha }

// Score returns the substitution score for residue codes a and b.
func (m *Matrix) Score(a, b byte) int {
	return int(m.scores[int(a)*m.n+int(b)])
}

// Row returns the score row for residue code a, indexed by the second code.
// The slice aliases the matrix; callers must not modify it.
func (m *Matrix) Row(a byte) []int16 {
	return m.scores[int(a)*m.n : (int(a)+1)*m.n]
}

// Size returns the matrix dimension (alphabet size).
func (m *Matrix) Size() int { return m.n }

func build(name string, alpha *seq.Alphabet, rows [][]int16) *Matrix {
	n := alpha.Size()
	if len(rows) != n {
		panic(fmt.Sprintf("matrix %s: %d rows for alphabet size %d", name, len(rows), n))
	}
	m := &Matrix{name: name, alpha: alpha, n: n, scores: make([]int16, n*n)}
	for i, row := range rows {
		if len(row) != n {
			panic(fmt.Sprintf("matrix %s: row %d has %d entries", name, i, len(row)))
		}
		for j, s := range row {
			m.scores[i*n+j] = s
		}
	}
	return m
}

// BLOSUM62 is the NCBI default protein scoring matrix, in the residue order
// A R N D C Q E G H I L K M F P S T W Y V B Z X *.
var BLOSUM62 = build("BLOSUM62", seq.ProteinAlphabet, [][]int16{
	/* A */ {4, -1, -2, -2, 0, -1, -1, 0, -2, -1, -1, -1, -1, -2, -1, 1, 0, -3, -2, 0, -2, -1, 0, -4},
	/* R */ {-1, 5, 0, -2, -3, 1, 0, -2, 0, -3, -2, 2, -1, -3, -2, -1, -1, -3, -2, -3, -1, 0, -1, -4},
	/* N */ {-2, 0, 6, 1, -3, 0, 0, 0, 1, -3, -3, 0, -2, -3, -2, 1, 0, -4, -2, -3, 3, 0, -1, -4},
	/* D */ {-2, -2, 1, 6, -3, 0, 2, -1, -1, -3, -4, -1, -3, -3, -1, 0, -1, -4, -3, -3, 4, 1, -1, -4},
	/* C */ {0, -3, -3, -3, 9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1, -3, -3, -2, -4},
	/* Q */ {-1, 1, 0, 0, -3, 5, 2, -2, 0, -3, -2, 1, 0, -3, -1, 0, -1, -2, -1, -2, 0, 3, -1, -4},
	/* E */ {-1, 0, 0, 2, -4, 2, 5, -2, 0, -3, -3, 1, -2, -3, -1, 0, -1, -3, -2, -2, 1, 4, -1, -4},
	/* G */ {0, -2, 0, -1, -3, -2, -2, 6, -2, -4, -4, -2, -3, -3, -2, 0, -2, -2, -3, -3, -1, -2, -1, -4},
	/* H */ {-2, 0, 1, -1, -3, 0, 0, -2, 8, -3, -3, -1, -2, -1, -2, -1, -2, -2, 2, -3, 0, 0, -1, -4},
	/* I */ {-1, -3, -3, -3, -1, -3, -3, -4, -3, 4, 2, -3, 1, 0, -3, -2, -1, -3, -1, 3, -3, -3, -1, -4},
	/* L */ {-1, -2, -3, -4, -1, -2, -3, -4, -3, 2, 4, -2, 2, 0, -3, -2, -1, -2, -1, 1, -4, -3, -1, -4},
	/* K */ {-1, 2, 0, -1, -3, 1, 1, -2, -1, -3, -2, 5, -1, -3, -1, 0, -1, -3, -2, -2, 0, 1, -1, -4},
	/* M */ {-1, -1, -2, -3, -1, 0, -2, -3, -2, 1, 2, -1, 5, 0, -2, -1, -1, -1, -1, 1, -3, -1, -1, -4},
	/* F */ {-2, -3, -3, -3, -2, -3, -3, -3, -1, 0, 0, -3, 0, 6, -4, -2, -2, 1, 3, -1, -3, -3, -1, -4},
	/* P */ {-1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4, 7, -1, -1, -4, -3, -2, -2, -1, -2, -4},
	/* S */ {1, -1, 1, 0, -1, 0, 0, 0, -1, -2, -2, 0, -1, -2, -1, 4, 1, -3, -2, -2, 0, 0, 0, -4},
	/* T */ {0, -1, 0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 1, 5, -2, -2, 0, -1, -1, 0, -4},
	/* W */ {-3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1, 1, -4, -3, -2, 11, 2, -3, -4, -3, -2, -4},
	/* Y */ {-2, -2, -2, -3, -2, -1, -2, -3, 2, -1, -1, -2, -1, 3, -3, -2, -2, 2, 7, -1, -3, -2, -1, -4},
	/* V */ {0, -3, -3, -3, -1, -2, -2, -3, -3, 3, 1, -2, 1, -1, -2, -2, 0, -3, -1, 4, -3, -2, -1, -4},
	/* B */ {-2, -1, 3, 4, -3, 0, 1, -1, 0, -3, -4, 0, -3, -3, -2, 0, -1, -4, -3, -3, 4, 1, -1, -4},
	/* Z */ {-1, 0, 0, 1, -3, 3, 4, -2, 0, -3, -3, 1, -1, -3, -1, 0, -1, -3, -2, -2, 1, 4, -1, -4},
	/* X */ {0, -1, -1, -1, -2, -1, -1, -1, -1, -1, -1, -1, -1, -1, -2, 0, 0, -2, -1, -1, -1, -1, -1, -4},
	/* * */ {-4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, 1},
})

// NewDNA builds a nucleotide matrix from a match reward and mismatch
// penalty (penalty given as a negative number), the blastn convention.
// Ambiguous residues (N) score the mismatch penalty against everything.
func NewDNA(match, mismatch int) *Matrix {
	alpha := seq.DNAAlphabet
	n := alpha.Size()
	rows := make([][]int16, n)
	for i := 0; i < n; i++ {
		rows[i] = make([]int16, n)
		for j := 0; j < n; j++ {
			switch {
			case i >= alpha.StrictSize() || j >= alpha.StrictSize():
				rows[i][j] = int16(mismatch)
			case i == j:
				rows[i][j] = int16(match)
			default:
				rows[i][j] = int16(mismatch)
			}
		}
	}
	return build(fmt.Sprintf("DNA(%+d/%+d)", match, mismatch), alpha, rows)
}

// DNADefault is the blastn default reward/penalty pair (+1/-3).
var DNADefault = NewDNA(1, -3)

// GapPenalties holds affine gap costs: opening a gap of length L costs
// Open + L*Extend. Both are positive numbers (costs).
type GapPenalties struct {
	Open   int
	Extend int
}

// DefaultProteinGaps matches blastp defaults (existence 11, extension 1).
var DefaultProteinGaps = GapPenalties{Open: 11, Extend: 1}

// DefaultDNAGaps matches blastn defaults (existence 5, extension 2).
var DefaultDNAGaps = GapPenalties{Open: 5, Extend: 2}

// Validate rejects non-positive penalties, which would make the gapped
// dynamic program diverge.
func (g GapPenalties) Validate() error {
	if g.Open < 0 || g.Extend <= 0 {
		return fmt.Errorf("matrix: invalid gap penalties open=%d extend=%d", g.Open, g.Extend)
	}
	return nil
}
