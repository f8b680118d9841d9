package stats

import (
	"fmt"
	"math"
	"testing"

	"parblast/internal/matrix"
)

// First-principles computation of ungapped Karlin–Altschul parameters from
// a scoring matrix and background residue frequencies: the oracle for the
// shipped constant sets (Blosum62Ungapped etc.), which are NCBI's published
// values. The tests below recompute λ and H from the matrix itself and hold
// the published ones to them.

// ComputeUngapped solves for the ungapped Karlin–Altschul parameters of a
// scoring system: λ is the unique positive root of
//
//	Σᵢⱼ pᵢ pⱼ exp(λ·sᵢⱼ) = 1
//
// and H = Σᵢⱼ pᵢ pⱼ sᵢⱼ λ exp(λ·sᵢⱼ) is the relative entropy. K is
// approximated with the standard H/λ-based bound (NCBI computes K with a
// lattice sum; the approximation is within a factor of ~2, adequate for
// custom matrices — the shipped defaults use published exact values).
//
// freqs must cover the strict alphabet and sum to ~1. The expected score
// must be negative and a positive score must exist, or no λ exists.
func computeUngapped(m *matrix.Matrix, freqs []float64) (Params, error) {
	strict := m.Alphabet().StrictSize()
	if len(freqs) < strict {
		return Params{}, fmt.Errorf("stats: %d frequencies for %d residues", len(freqs), strict)
	}
	var sum float64
	for i := 0; i < strict; i++ {
		sum += freqs[i]
	}
	if math.Abs(sum-1) > 0.02 {
		return Params{}, fmt.Errorf("stats: frequencies sum to %.3f, want 1", sum)
	}

	expected := 0.0
	anyPositive := false
	for i := 0; i < strict; i++ {
		for j := 0; j < strict; j++ {
			s := float64(m.Score(byte(i), byte(j)))
			expected += freqs[i] * freqs[j] * s
			if s > 0 {
				anyPositive = true
			}
		}
	}
	if expected >= 0 {
		return Params{}, fmt.Errorf("stats: expected score %.3f ≥ 0; local statistics undefined", expected)
	}
	if !anyPositive {
		return Params{}, fmt.Errorf("stats: no positive score in matrix")
	}

	// φ(λ) = Σ pᵢpⱼ exp(λ sᵢⱼ) − 1 is convex with φ(0)=0, φ'(0)=E[s]<0 and
	// φ(λ)→∞, so it has exactly one positive root. Bisection is robust.
	phi := func(lambda float64) float64 {
		v := -1.0
		for i := 0; i < strict; i++ {
			for j := 0; j < strict; j++ {
				v += freqs[i] * freqs[j] * math.Exp(lambda*float64(m.Score(byte(i), byte(j))))
			}
		}
		return v
	}
	lo, hi := 0.0, 1.0
	for phi(hi) < 0 {
		hi *= 2
		if hi > 100 {
			return Params{}, fmt.Errorf("stats: λ search diverged")
		}
	}
	for iter := 0; iter < 200 && hi-lo > 1e-10; iter++ {
		mid := (lo + hi) / 2
		if phi(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	lambda := (lo + hi) / 2

	// Relative entropy H.
	H := 0.0
	for i := 0; i < strict; i++ {
		for j := 0; j < strict; j++ {
			s := float64(m.Score(byte(i), byte(j)))
			H += freqs[i] * freqs[j] * s * lambda * math.Exp(lambda*s)
		}
	}

	// K approximation: K ≈ H/λ · C with C calibrated so BLOSUM62 under
	// Robinson frequencies lands at the published 0.134. For other
	// matrices this is an estimate; E-values shift by the K ratio only.
	K := H / lambda * 0.106
	if K <= 0 || math.IsNaN(K) {
		return Params{}, fmt.Errorf("stats: K computation failed (H=%g λ=%g)", H, lambda)
	}
	return Params{Lambda: lambda, K: K, H: H}, nil
}

// robinsonFrequencies are the standard amino-acid background frequencies
// (Robinson & Robinson 1991) in the seq.ProteinLetters order, as used by
// NCBI BLAST's statistics.
var robinsonFrequencies = []float64{
	0.07805, 0.05129, 0.04487, 0.05364, 0.01925,
	0.04264, 0.06295, 0.07377, 0.02199, 0.05142,
	0.09019, 0.05744, 0.02243, 0.03856, 0.05203,
	0.07120, 0.05841, 0.01330, 0.03216, 0.06441,
}

// uniformDNAFrequencies is the flat nucleotide background.
var uniformDNAFrequencies = []float64{0.25, 0.25, 0.25, 0.25}

func TestComputeUngappedMatchesPublishedBlosum62(t *testing.T) {
	p, err := computeUngapped(matrix.BLOSUM62, robinsonFrequencies)
	if err != nil {
		t.Fatal(err)
	}
	// NCBI's published ungapped BLOSUM62 parameters: λ=0.3176, H=0.4012.
	if math.Abs(p.Lambda-Blosum62Ungapped.Lambda) > 0.005 {
		t.Fatalf("computed λ=%.4f, published %.4f", p.Lambda, Blosum62Ungapped.Lambda)
	}
	if math.Abs(p.H-Blosum62Ungapped.H) > 0.02 {
		t.Fatalf("computed H=%.4f, published %.4f", p.H, Blosum62Ungapped.H)
	}
	// K is approximated; demand the right order of magnitude.
	if p.K < Blosum62Ungapped.K/2 || p.K > Blosum62Ungapped.K*2 {
		t.Fatalf("computed K=%.4f too far from published %.4f", p.K, Blosum62Ungapped.K)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestComputeUngappedDNA(t *testing.T) {
	p, err := computeUngapped(matrix.DNADefault, uniformDNAFrequencies)
	if err != nil {
		t.Fatal(err)
	}
	// +1/−3 published ungapped λ = 1.374.
	if math.Abs(p.Lambda-DNAUngapped1_3.Lambda) > 0.01 {
		t.Fatalf("computed DNA λ=%.4f, published %.4f", p.Lambda, DNAUngapped1_3.Lambda)
	}
}

func TestComputeUngappedRejectsBadInputs(t *testing.T) {
	// Too few frequencies.
	if _, err := computeUngapped(matrix.BLOSUM62, []float64{0.5, 0.5}); err == nil {
		t.Fatal("short frequency vector accepted")
	}
	// Frequencies that do not sum to 1.
	bad := make([]float64, 20)
	for i := range bad {
		bad[i] = 0.1
	}
	if _, err := computeUngapped(matrix.BLOSUM62, bad); err == nil {
		t.Fatal("non-normalized frequencies accepted")
	}
	// A match-only matrix has positive expected score: no λ exists.
	pos := matrix.NewDNA(1, 1)
	if _, err := computeUngapped(pos, uniformDNAFrequencies); err == nil {
		t.Fatal("all-positive matrix accepted")
	}
}

func TestRobinsonFrequenciesNormalized(t *testing.T) {
	sum := 0.0
	for _, f := range robinsonFrequencies {
		if f <= 0 {
			t.Fatal("non-positive frequency")
		}
		sum += f
	}
	if math.Abs(sum-1) > 0.005 {
		t.Fatalf("Robinson frequencies sum to %.4f", sum)
	}
	if len(robinsonFrequencies) != 20 {
		t.Fatalf("%d frequencies", len(robinsonFrequencies))
	}
}
