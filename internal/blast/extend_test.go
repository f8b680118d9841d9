package blast

import (
	"math/rand"
	"testing"
	"testing/quick"

	"parblast/internal/matrix"
)

// refExtendScore is a brute-force reference for extendGapped: the best
// score over all (i,j) of an affine-gap alignment of query[0:i] with
// subj[0:j] anchored at (0,0). No X-drop, full O(mn) Gotoh.
func refExtendScore(query, subj []byte, m *matrix.Matrix, gaps matrix.GapPenalties) int {
	mLen, nLen := len(query), len(subj)
	H := make([][]int, mLen+1)
	E := make([][]int, mLen+1)
	F := make([][]int, mLen+1)
	for i := range H {
		H[i] = make([]int, nLen+1)
		E[i] = make([]int, nLen+1)
		F[i] = make([]int, nLen+1)
	}
	gapOE := gaps.Open + gaps.Extend
	best := 0
	for i := 0; i <= mLen; i++ {
		for j := 0; j <= nLen; j++ {
			switch {
			case i == 0 && j == 0:
				H[0][0], E[0][0], F[0][0] = 0, negInf, negInf
				continue
			case i == 0:
				E[0][j] = max(H[0][j-1]-gapOE, E[0][j-1]-gaps.Extend)
				F[0][j] = negInf
				H[0][j] = E[0][j]
			case j == 0:
				F[i][0] = max(H[i-1][0]-gapOE, F[i-1][0]-gaps.Extend)
				E[i][0] = negInf
				H[i][0] = F[i][0]
			default:
				E[i][j] = max(H[i][j-1]-gapOE, E[i][j-1]-gaps.Extend)
				F[i][j] = max(H[i-1][j]-gapOE, F[i-1][j]-gaps.Extend)
				d := H[i-1][j-1] + m.Score(query[i-1], subj[j-1])
				H[i][j] = max(d, max(E[i][j], F[i][j]))
			}
			if H[i][j] > best {
				best = H[i][j]
			}
		}
	}
	return best
}

// scoreFromOps recomputes an alignment score from a trace.
func scoreFromOps(query, subj []byte, qFrom, sFrom int, ops []EditOp, m *matrix.Matrix, gaps matrix.GapPenalties) int {
	score := 0
	q, s := qFrom, sFrom
	var run EditOp = OpSub
	for _, op := range ops {
		switch op {
		case OpSub:
			score += m.Score(query[q], subj[s])
			q++
			s++
		case OpIns:
			if run != OpIns {
				score -= gaps.Open
			}
			score -= gaps.Extend
			s++
		case OpDel:
			if run != OpDel {
				score -= gaps.Open
			}
			score -= gaps.Extend
			q++
		}
		run = op
	}
	return score
}

func randomProtein(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(20))
	}
	return out
}

// mutate applies point mutations and small indels, returning a homolog.
func mutate(rng *rand.Rand, in []byte, rate float64) []byte {
	out := make([]byte, 0, len(in)+4)
	for _, c := range in {
		r := rng.Float64()
		switch {
		case r < rate*0.6: // substitution
			out = append(out, byte(rng.Intn(20)))
		case r < rate*0.8: // deletion
		case r < rate: // insertion
			out = append(out, c, byte(rng.Intn(20)))
		default:
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		out = append(out, 0)
	}
	return out
}

func TestExtendUngappedExactMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := randomProtein(rng, 50)
	// Subject embeds the query exactly with junk around it.
	subj := append(append(randomProtein(rng, 30), q...), randomProtein(rng, 30)...)
	var work WorkCounters
	seg := extendUngapped(q, subj, 10, 40, blosum62Table, 1000, &work)
	if seg.qFrom != 0 || seg.qTo != 50 {
		t.Fatalf("expected full query span [0,50), got [%d,%d)", seg.qFrom, seg.qTo)
	}
	if seg.sFrom != 30 || seg.sTo != 80 {
		t.Fatalf("expected subject span [30,80), got [%d,%d)", seg.sFrom, seg.sTo)
	}
	want := 0
	for _, c := range q {
		want += matrix.BLOSUM62.Score(c, c)
	}
	if seg.score != want {
		t.Fatalf("score = %d, want %d", seg.score, want)
	}
	if work.UngappedCells == 0 || work.UngappedExtensions != 1 {
		t.Fatalf("work counters not tallied: %+v", work)
	}
}

func TestExtendUngappedXDropStops(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q := randomProtein(rng, 200)
	subj := make([]byte, 200)
	copy(subj, q[:20]) // identical prefix, then random junk
	for i := 20; i < 200; i++ {
		subj[i] = byte(rng.Intn(20))
	}
	var work WorkCounters
	seg := extendUngapped(q, subj, 0, 0, blosum62Table, 10, &work)
	if seg.qTo > 60 {
		t.Fatalf("X-drop failed to stop extension: qTo=%d", seg.qTo)
	}
	if seg.score <= 0 {
		t.Fatalf("expected positive score on identical prefix, got %d", seg.score)
	}
}

func TestExtendGappedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gaps := matrix.DefaultProteinGaps
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(40)
		q := randomProtein(rng, n)
		var s []byte
		if trial%2 == 0 {
			s = mutate(rng, q, 0.15) // related pair: positive scores likely
		} else {
			s = randomProtein(rng, 3+rng.Intn(40))
		}
		var work WorkCounters
		got := extendGapped(nil, q, s, matrix.BLOSUM62, gaps, 1<<20, &work)
		want := refExtendScore(q, s, matrix.BLOSUM62, gaps)
		if got.score != want {
			t.Fatalf("trial %d: extendGapped score=%d, reference=%d\nq=%v\ns=%v",
				trial, got.score, want, q, s)
		}
		if got.score > 0 {
			ts := scoreFromOps(q, s, 0, 0, got.ops, matrix.BLOSUM62, gaps)
			if ts != got.score {
				t.Fatalf("trial %d: trace recomputes to %d, reported %d", trial, ts, got.score)
			}
			// Trace must consume exactly (qEnd, sEnd) residues.
			var qc, sc int
			for _, op := range got.ops {
				switch op {
				case OpSub:
					qc++
					sc++
				case OpIns:
					sc++
				case OpDel:
					qc++
				}
			}
			if qc != got.qEnd || sc != got.sEnd {
				t.Fatalf("trial %d: trace consumes (%d,%d), ends (%d,%d)", trial, qc, sc, got.qEnd, got.sEnd)
			}
		}
	}
}

func TestExtendGappedXDropNeverImproves(t *testing.T) {
	// With a small X-drop the score can only be ≤ the unbounded score.
	rng := rand.New(rand.NewSource(4))
	gaps := matrix.DefaultProteinGaps
	for trial := 0; trial < 100; trial++ {
		q := randomProtein(rng, 5+rng.Intn(60))
		s := mutate(rng, q, 0.25)
		var w1, w2 WorkCounters
		full := extendGapped(nil, q, s, matrix.BLOSUM62, gaps, 1<<20, &w1)
		pruned := extendGapped(nil, q, s, matrix.BLOSUM62, gaps, 12, &w2)
		if pruned.score > full.score {
			t.Fatalf("trial %d: pruned score %d exceeds full score %d", trial, pruned.score, full.score)
		}
		if w2.GappedCells > w1.GappedCells {
			t.Fatalf("trial %d: X-drop evaluated more cells (%d) than full (%d)",
				trial, w2.GappedCells, w1.GappedCells)
		}
	}
}

func TestExtendGappedEmptyInputs(t *testing.T) {
	var work WorkCounters
	if r := extendGapped(nil, nil, []byte{1, 2}, matrix.BLOSUM62, matrix.DefaultProteinGaps, 100, &work); r.score != 0 {
		t.Fatalf("empty query gave score %d", r.score)
	}
	if r := extendGapped(nil, []byte{1, 2}, nil, matrix.BLOSUM62, matrix.DefaultProteinGaps, 100, &work); r.score != 0 {
		t.Fatalf("empty subject gave score %d", r.score)
	}
}

func TestExtendGappedQuickProperty(t *testing.T) {
	// Property: for arbitrary residue strings the extension score is
	// non-negative, bounded by perfect self-alignment of the shorter input,
	// and the trace stays within the inputs.
	gaps := matrix.DefaultProteinGaps
	f := func(qr, sr []byte) bool {
		if len(qr) == 0 || len(sr) == 0 || len(qr) > 80 || len(sr) > 80 {
			return true
		}
		q := make([]byte, len(qr))
		for i, c := range qr {
			q[i] = c % 20
		}
		s := make([]byte, len(sr))
		for i, c := range sr {
			s[i] = c % 20
		}
		var work WorkCounters
		r := extendGapped(nil, q, s, matrix.BLOSUM62, gaps, 1<<20, &work)
		if r.score < 0 {
			return false
		}
		maxLen := len(q)
		if len(s) < maxLen {
			maxLen = len(s)
		}
		if r.score > maxLen*matrix.BLOSUM62.MaxScore() {
			return false
		}
		return r.qEnd <= len(q) && r.sEnd <= len(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReverseHelpers(t *testing.T) {
	b := []byte{1, 2, 3}
	r := reverseBytes(b)
	if r[0] != 3 || r[2] != 1 || b[0] != 1 {
		t.Fatalf("reverseBytes wrong or mutated input: %v %v", b, r)
	}
	ops := []EditOp{OpSub, OpIns, OpDel}
	reverseOps(ops)
	if ops[0] != OpDel || ops[2] != OpSub {
		t.Fatalf("reverseOps wrong: %v", ops)
	}
}
