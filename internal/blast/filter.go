package blast

import (
	"math"

	"parblast/internal/seq"
)

// Low-complexity filtering in the spirit of SEG (Wootton & Federhen 1993)
// and DUST: BLAST's -F option, which 2004-era blastall enabled by default.
// Low-complexity query regions (homopolymer runs, short repeats) seed
// enormous numbers of biologically meaningless word hits; filtering masks
// them for the SEEDING stage only — extensions still align the unmasked
// residues, as NCBI BLAST does with soft masking.
//
// The implementation is the standard sliding-window Shannon-entropy
// criterion: a window whose residue entropy falls below a cutoff is
// low-complexity; overlapping low windows merge into masked intervals.

// FilterParams configures low-complexity masking.
type FilterParams struct {
	// Window is the sliding-window length (SEG uses 12 for protein,
	// DUST 64 for DNA; we default to 12/16).
	Window int
	// MaxEntropy is the entropy cutoff in bits: windows at or below it
	// are masked. SEG's K2 locut of 2.2 bits is the protein default.
	MaxEntropy float64
}

// DefaultFilterParams returns the conventional parameters for a kind.
func DefaultFilterParams(k seq.Kind) FilterParams {
	if k == seq.DNA {
		return FilterParams{Window: 16, MaxEntropy: 1.5}
	}
	return FilterParams{Window: 12, MaxEntropy: 2.2}
}

// Interval is a half-open masked range.
type Interval struct {
	From, To int
}

// LowComplexityIntervals returns the merged low-complexity intervals of a
// residue string under the given parameters.
func LowComplexityIntervals(residues []byte, alpha *seq.Alphabet, p FilterParams) []Interval {
	w := p.Window
	if w <= 1 || len(residues) < w {
		return nil
	}
	strict := alpha.StrictSize()
	counts := make([]int, strict+1) // last bucket: ambiguity codes
	bucket := func(c byte) int {
		if int(c) < strict {
			return int(c)
		}
		return strict
	}
	entropy := func() float64 {
		h := 0.0
		for _, n := range counts {
			if n > 0 {
				pr := float64(n) / float64(w)
				h -= float64(pr * math.Log2(pr))
			}
		}
		return h
	}
	var out []Interval
	for i := 0; i < w; i++ {
		counts[bucket(residues[i])]++
	}
	add := func(from, to int) {
		if n := len(out); n > 0 && out[n-1].To >= from {
			if to > out[n-1].To {
				out[n-1].To = to
			}
			return
		}
		out = append(out, Interval{From: from, To: to})
	}
	for start := 0; ; start++ {
		if entropy() <= p.MaxEntropy {
			add(start, start+w)
		}
		if start+w >= len(residues) {
			break
		}
		counts[bucket(residues[start])]--
		counts[bucket(residues[start+w])]++
	}
	return out
}

// MaskForSeeding returns a copy of the residues with low-complexity
// intervals replaced by the alphabet's wildcard, which the word index
// skips. The original residues are untouched (soft masking).
func MaskForSeeding(residues []byte, alpha *seq.Alphabet, p FilterParams) ([]byte, []Interval) {
	ivs := LowComplexityIntervals(residues, alpha, p)
	if len(ivs) == 0 {
		return residues, nil
	}
	masked := make([]byte, len(residues))
	copy(masked, residues)
	for _, iv := range ivs {
		for i := iv.From; i < iv.To; i++ {
			masked[i] = alpha.Wildcard()
		}
	}
	return masked, ivs
}

// MaskedFraction reports the share of residues inside intervals.
func MaskedFraction(length int, ivs []Interval) float64 {
	if length == 0 {
		return 0
	}
	n := 0
	for _, iv := range ivs {
		n += iv.To - iv.From
	}
	return float64(n) / float64(length)
}
