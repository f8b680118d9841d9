package stats

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"parblast/internal/matrix"
)

func TestParamSelection(t *testing.T) {
	p, err := For(matrix.BLOSUM62, matrix.DefaultProteinGaps, true)
	if err != nil || p != Blosum62Gapped11_1 {
		t.Fatalf("gapped BLOSUM62 params wrong: %+v, %v", p, err)
	}
	p, err = For(matrix.BLOSUM62, matrix.DefaultProteinGaps, false)
	if err != nil || p != Blosum62Ungapped {
		t.Fatalf("ungapped BLOSUM62 params wrong: %+v", p)
	}
	// Non-default gaps fall back to ungapped (conservative).
	p, _ = For(matrix.BLOSUM62, matrix.GapPenalties{Open: 5, Extend: 5}, true)
	if p != Blosum62Ungapped {
		t.Fatalf("fallback params wrong: %+v", p)
	}
	p, _ = For(matrix.DNADefault, matrix.DefaultDNAGaps, true)
	if p != DNAGapped1_3_5_2 {
		t.Fatalf("DNA params wrong: %+v", p)
	}
}

func TestAllParamsValid(t *testing.T) {
	for _, p := range []Params{Blosum62Ungapped, Blosum62Gapped11_1, DNAUngapped1_3, DNAGapped1_3_5_2} {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := (Params{Lambda: 0, K: 1, H: 1}).Validate(); err == nil {
		t.Fatal("zero lambda accepted")
	}
}

func TestEValueMonotoneInScore(t *testing.T) {
	p := Blosum62Gapped11_1
	ss := NewSearchSpace(p, 300, 1_000_000, 2000)
	prev := math.Inf(1)
	for s := 20; s <= 500; s += 10 {
		e := p.EValue(s, ss)
		if e >= prev {
			t.Fatalf("E-value not strictly decreasing at score %d: %g >= %g", s, e, prev)
		}
		prev = e
	}
}

func TestBitScoreRoundTrip(t *testing.T) {
	p := Blosum62Gapped11_1
	for raw := 30; raw < 400; raw += 17 {
		bits := p.BitScore(raw)
		back := int(math.Ceil((bits*math.Ln2+math.Log(p.K))/p.Lambda - 1e-9))
		if back != raw {
			t.Fatalf("BitScore(%d) = %g inverts to %d", raw, bits, back)
		}
	}
}

func TestScoreForEValueInvertsEValue(t *testing.T) {
	p := Blosum62Gapped11_1
	ss := NewSearchSpace(p, 250, 5_000_000, 10000)
	for _, e := range []float64{10, 1, 1e-3, 1e-10} {
		s := p.ScoreForEValue(e, ss)
		if got := p.EValue(s, ss); got > e {
			t.Fatalf("score %d for E=%g still gives E=%g", s, e, got)
		}
		if got := p.EValue(s-1, ss); got <= e {
			t.Fatalf("score %d is not minimal for E=%g (s-1 gives %g)", s, e, got)
		}
	}
}

func TestSearchSpaceCorrection(t *testing.T) {
	p := Blosum62Gapped11_1
	ss := NewSearchSpace(p, 300, 10_000_000, 30000)
	if ss.EffQueryLen >= ss.QueryLen || ss.EffQueryLen < 1 {
		t.Fatalf("effective query length %d not in (0, %d)", ss.EffQueryLen, ss.QueryLen)
	}
	if ss.EffDBLen >= ss.DBLen || ss.EffDBLen < 1 {
		t.Fatalf("effective DB length %d not in (0, %d)", ss.EffDBLen, ss.DBLen)
	}
}

func TestSearchSpaceDegenerate(t *testing.T) {
	p := Blosum62Gapped11_1
	// Tiny query: correction must not drive lengths negative.
	ss := NewSearchSpace(p, 5, 100, 3)
	if ss.EffQueryLen < 1 || ss.EffDBLen < 1 {
		t.Fatalf("degenerate space went non-positive: %+v", ss)
	}
	// Zero sequences defaults to 1.
	ss = NewSearchSpace(p, 100, 1000, 0)
	if ss.DBSeqs != 1 {
		t.Fatalf("DBSeqs not defaulted: %d", ss.DBSeqs)
	}
}

func TestEValueScalesWithSearchSpace(t *testing.T) {
	p := Blosum62Gapped11_1
	small := NewSearchSpace(p, 300, 1_000_000, 2000)
	big := NewSearchSpace(p, 300, 100_000_000, 200000)
	if p.EValue(100, big) <= p.EValue(100, small) {
		t.Fatal("bigger database should give bigger E-value for the same score")
	}
}

func TestFormatEValue(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0.0"},
		{1e-200, "0.0"},
		{3.2e-42, "3e-42"},
		{0.5, "0.50"},
		{2.3, "2.3"},
		{42.7, "43"},
	}
	for _, c := range cases {
		if got := string(AppendEValue(nil, c.in)); got != c.want {
			t.Fatalf("AppendEValue(%g) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestEValuePositiveQuick(t *testing.T) {
	p := Blosum62Gapped11_1
	ss := NewSearchSpace(p, 200, 1_000_000, 1000)
	f := func(raw uint16) bool {
		// Scores beyond a few thousand underflow exp() to exactly 0,
		// which is correct behaviour; test the representable range.
		s := int(raw) % 2500
		e := p.EValue(s, ss)
		return e > 0 && !math.IsNaN(e) && !math.IsInf(e, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatEValueNeverEmpty(t *testing.T) {
	for _, e := range []float64{0, 1e-300, 1e-5, 0.01, 0.99, 1, 9.9, 10, 1e6} {
		if s := string(AppendEValue(nil, e)); strings.TrimSpace(s) == "" {
			t.Fatalf("empty format for %g", e)
		}
	}
}

// Validate rejects parameter sets that would produce nonsense statistics.
func (p Params) Validate() error {
	if p.Lambda <= 0 || p.K <= 0 || p.H < 0 {
		return fmt.Errorf("stats: invalid params λ=%g K=%g H=%g", p.Lambda, p.K, p.H)
	}
	return nil
}
