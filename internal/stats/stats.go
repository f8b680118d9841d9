// Package stats implements Karlin–Altschul statistics for BLAST: raw-score →
// bit-score conversion, E-values, and effective search-space corrections.
//
// The parameter sets are the published NCBI values for the matrices and gap
// penalties shipped in internal/matrix. Given a raw alignment score S against
// a database of total length n with a query of length m, the expected number
// of chance alignments with score ≥ S is
//
//	E = K · m' · n' · exp(−λ·S)
//
// where m' and n' are the query and database lengths corrected for edge
// effects, and the bit score is S' = (λ·S − ln K) / ln 2.
package stats

import (
	"fmt"
	"math"
	"strconv"

	"parblast/internal/matrix"
)

// Params holds the Karlin–Altschul parameters for one scoring system.
type Params struct {
	// Lambda is the scale parameter of the extreme-value distribution.
	Lambda float64
	// K is the search-space proportionality constant.
	K float64
	// H is the relative entropy of the scoring system (nats/aligned pair),
	// used for the edge-effect length correction.
	H float64
}

// Published NCBI parameter sets.
var (
	// Blosum62Ungapped are the parameters for ungapped BLOSUM62 alignments.
	Blosum62Ungapped = Params{Lambda: 0.3176, K: 0.134, H: 0.4012}
	// Blosum62Gapped11_1 covers BLOSUM62 with gap open 11, extend 1
	// (the blastp default).
	Blosum62Gapped11_1 = Params{Lambda: 0.267, K: 0.041, H: 0.14}
	// DNAUngapped1_3 covers blastn reward +1 / penalty −3, ungapped.
	DNAUngapped1_3 = Params{Lambda: 1.374, K: 0.711, H: 1.31}
	// DNAGapped1_3_5_2 covers +1/−3 with gap open 5, extend 2
	// (the blastn default).
	DNAGapped1_3_5_2 = Params{Lambda: 1.37, K: 0.711, H: 1.31}
)

// For selects parameters for a matrix/gap combination. Gapped parameter sets
// are keyed on the shipped defaults; other combinations fall back to the
// ungapped parameters of the matrix, which is conservative (overestimates E).
func For(m *matrix.Matrix, gaps matrix.GapPenalties, gapped bool) (Params, error) {
	switch m.Name() {
	case "BLOSUM62":
		if !gapped {
			return Blosum62Ungapped, nil
		}
		if gaps == matrix.DefaultProteinGaps {
			return Blosum62Gapped11_1, nil
		}
		return Blosum62Ungapped, nil
	default:
		// All shipped DNA matrices use the +1/−3-shaped statistics.
		if !gapped {
			return DNAUngapped1_3, nil
		}
		return DNAGapped1_3_5_2, nil
	}
}

// SearchSpace describes the corrected Karlin–Altschul search space for one
// query against one database.
type SearchSpace struct {
	// QueryLen is the raw query length m.
	QueryLen int
	// DBLen is the total residue count of the database, n.
	DBLen int64
	// DBSeqs is the number of database sequences.
	DBSeqs int
	// EffQueryLen and EffDBLen are the edge-corrected lengths.
	EffQueryLen int
	EffDBLen    int64
}

// NewSearchSpace computes the effective lengths. The length adjustment
// follows the standard iteration: l = (ln K + ln(m−l) + ln(n−N·l)) / H,
// floored at 1/K and capped so the effective lengths stay positive.
func NewSearchSpace(p Params, queryLen int, dbLen int64, dbSeqs int) SearchSpace {
	ss := SearchSpace{QueryLen: queryLen, DBLen: dbLen, DBSeqs: dbSeqs}
	if dbSeqs <= 0 {
		dbSeqs = 1
		ss.DBSeqs = 1
	}
	m := float64(queryLen)
	n := float64(dbLen)
	N := float64(dbSeqs)
	if p.H <= 0 || m <= 0 || n <= 0 {
		ss.EffQueryLen = queryLen
		ss.EffDBLen = dbLen
		return ss
	}
	l := 0.0
	for i := 0; i < 20; i++ {
		mm := m - l
		nn := n - float64(N*l)
		if mm < 1 {
			mm = 1
		}
		if nn < 1 {
			nn = 1
		}
		next := (math.Log(p.K) + math.Log(mm) + math.Log(nn)) / p.H
		if next < 0 {
			next = 0
		}
		if math.Abs(next-l) < 0.5 {
			l = next
			break
		}
		l = next
	}
	effM := m - l
	if effM < 1 {
		effM = 1
	}
	effN := n - float64(N*l)
	if effN < 1 {
		effN = 1
	}
	ss.EffQueryLen = int(effM)
	ss.EffDBLen = int64(effN)
	return ss
}

// BitScore converts a raw score to a bit score.
func (p Params) BitScore(raw int) float64 {
	return (float64(p.Lambda*float64(raw)) - math.Log(p.K)) / math.Ln2
}

// RawScore converts a bit score back to the smallest raw score achieving it.
// A small epsilon absorbs floating-point noise so that
// RawScore(BitScore(s)) == s for integer s.
func (p Params) RawScore(bits float64) int {
	return int(math.Ceil((bits*math.Ln2+math.Log(p.K))/p.Lambda - 1e-9))
}

// EValue computes the expected number of chance alignments with score ≥ raw
// in the given search space.
func (p Params) EValue(raw int, ss SearchSpace) float64 {
	space := float64(ss.EffQueryLen) * float64(ss.EffDBLen)
	return p.K * space * math.Exp(-p.Lambda*float64(raw))
}

// ScoreForEValue returns the minimum raw score whose E-value is ≤ e in the
// given search space. It inverts EValue.
func (p Params) ScoreForEValue(e float64, ss SearchSpace) int {
	if e <= 0 {
		e = math.SmallestNonzeroFloat64
	}
	space := float64(ss.EffQueryLen) * float64(ss.EffDBLen)
	s := (math.Log(p.K*space) - math.Log(e)) / p.Lambda
	return int(math.Ceil(s))
}

// Validate rejects parameter sets that would produce nonsense statistics.
func (p Params) Validate() error {
	if p.Lambda <= 0 || p.K <= 0 || p.H < 0 {
		return fmt.Errorf("stats: invalid params λ=%g K=%g H=%g", p.Lambda, p.K, p.H)
	}
	return nil
}

// FormatEValue renders an E-value the way NCBI BLAST reports do:
// scientific notation below 1e-2 ("3e-42"), otherwise fixed point.
// Very small values are clamped to "0.0".
func FormatEValue(e float64) string { return string(AppendEValue(nil, e)) }

// AppendEValue appends FormatEValue's rendering of e to dst.
func AppendEValue(dst []byte, e float64) []byte {
	switch {
	case e < 1e-180:
		return append(dst, "0.0"...)
	case e < 1e-2:
		return strconv.AppendFloat(dst, e, 'e', 0, 64)
	case e < 1:
		return strconv.AppendFloat(dst, e, 'f', 2, 64)
	case e < 10:
		return strconv.AppendFloat(dst, e, 'f', 1, 64)
	default:
		return strconv.AppendFloat(dst, e, 'f', 0, 64)
	}
}
