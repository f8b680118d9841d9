package blast

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"parblast/internal/matrix"
	"parblast/internal/seq"
	"parblast/internal/stats"
)

// formatHitRef, formatHSPRef, renderTabularRef, formatSummaryRef and
// formatEValueRef are the fmt-based renderers as they stood before blocks
// were appended with strconv: the two halves of RenderHit, RenderSummary's
// pairwise rows and stats.FormatEValue. They are kept verbatim (pct
// as pctRef) as the oracle of TestAppendHitDifferential.
func formatHitRef(query *seq.Sequence, subjResidues []byte, r *SubjectResult, m *matrix.Matrix) string {
	var b strings.Builder
	fmt.Fprintf(&b, ">%s", r.ID)
	if r.Defline != "" {
		fmt.Fprintf(&b, " %s", r.Defline)
	}
	fmt.Fprintf(&b, "\n          Length = %d\n\n", r.SubjLen)
	for _, h := range r.HSPs {
		formatHSPRef(&b, query, subjResidues, h, m)
	}
	return b.String()
}

func formatHSPRef(b *strings.Builder, query *seq.Sequence, subj []byte, h *HSP, m *matrix.Matrix) {
	ident, positive, gaps := h.Identity(query.Residues, subj, m)
	alen := h.AlignLen()
	fmt.Fprintf(b, " Score = %.1f bits (%d), Expect = %s\n", h.BitScore, h.Score, formatEValueRef(h.EValue))
	fmt.Fprintf(b, " Identities = %d/%d (%d%%)", ident, alen, pctRef(ident, alen))
	if m.Alphabet().Kind() == seq.Protein {
		fmt.Fprintf(b, ", Positives = %d/%d (%d%%)", positive, alen, pctRef(positive, alen))
	}
	if gaps > 0 {
		fmt.Fprintf(b, ", Gaps = %d/%d (%d%%)", gaps, alen, pctRef(gaps, alen))
	}
	b.WriteString("\n\n")

	alpha := m.Alphabet()
	qLine := make([]byte, 0, alen)
	mLine := make([]byte, 0, alen)
	sLine := make([]byte, 0, alen)
	q, s := h.QueryFrom, h.SubjFrom
	for _, op := range h.Ops() {
		switch op {
		case OpSub:
			qc, sc := query.Residues[q], subj[s]
			qLine = append(qLine, alpha.Letter(qc))
			sLine = append(sLine, alpha.Letter(sc))
			switch {
			case qc == sc:
				if alpha.Kind() == seq.Protein {
					mLine = append(mLine, alpha.Letter(qc))
				} else {
					mLine = append(mLine, '|')
				}
			case m.Score(qc, sc) > 0:
				mLine = append(mLine, '+')
			default:
				mLine = append(mLine, ' ')
			}
			q++
			s++
		case OpIns:
			qLine = append(qLine, '-')
			mLine = append(mLine, ' ')
			sLine = append(sLine, alpha.Letter(subj[s]))
			s++
		case OpDel:
			qLine = append(qLine, alpha.Letter(query.Residues[q]))
			mLine = append(mLine, ' ')
			sLine = append(sLine, '-')
			q++
		}
	}

	const width = 60
	qPos, sPos := h.QueryFrom, h.SubjFrom
	for off := 0; off < alen; off += width {
		end := off + width
		if end > alen {
			end = alen
		}
		qChunk, mChunk, sChunk := qLine[off:end], mLine[off:end], sLine[off:end]
		qConsumed := countConsumedRef(qChunk)
		sConsumed := countConsumedRef(sChunk)
		qStart, sStart := qPos+1, sPos+1
		if qConsumed == 0 {
			qStart = qPos // all-gap line: NCBI prints the previous position
		}
		if sConsumed == 0 {
			sStart = sPos
		}
		fmt.Fprintf(b, "Query: %-5d %s %d\n", qStart, qChunk, qPos+qConsumed)
		fmt.Fprintf(b, "             %s\n", mChunk)
		fmt.Fprintf(b, "Sbjct: %-5d %s %d\n\n", sStart, sChunk, sPos+sConsumed)
		qPos += qConsumed
		sPos += sConsumed
	}
}

func countConsumedRef(line []byte) int {
	n := 0
	for _, c := range line {
		if c != '-' {
			n++
		}
	}
	return n
}

func pctRef(n, d int) int {
	if d == 0 {
		return 0
	}
	return int(float64(n)/float64(d)*100 + 0.5)
}

func renderTabularRef(query *seq.Sequence, subjResidues []byte, r *SubjectResult, m *matrix.Matrix) string {
	var b strings.Builder
	for _, h := range r.HSPs {
		ident, _, gaps := h.Identity(query.Residues, subjResidues, m)
		alen := h.AlignLen()
		mismatches := 0
		gapOpens := 0
		var prev EditOp = OpSub
		q, s := h.QueryFrom, h.SubjFrom
		for _, op := range h.Ops() {
			switch op {
			case OpSub:
				if query.Residues[q] != subjResidues[s] {
					mismatches++
				}
				q++
				s++
			case OpIns:
				if prev != OpIns {
					gapOpens++
				}
				s++
			case OpDel:
				if prev != OpDel {
					gapOpens++
				}
				q++
			}
			prev = op
		}
		pctIdent := 0.0
		if alen > 0 {
			pctIdent = 100 * float64(ident) / float64(alen)
		}
		_ = gaps
		fmt.Fprintf(&b, "%s\t%s\t%.2f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\t%.1f\n",
			query.ID, r.ID, pctIdent, alen, mismatches, gapOpens,
			h.QueryFrom+1, h.QueryTo, h.SubjFrom+1, h.SubjTo,
			formatEValueRef(h.EValue), h.BitScore)
	}
	return b.String()
}

func formatSummaryRef(hits []*SubjectResult) string {
	var b strings.Builder
	if len(hits) == 0 {
		b.WriteString(" ***** No hits found ******\n\n")
		return b.String()
	}
	b.WriteString("                                                                 Score    E\n")
	b.WriteString("Sequences producing significant alignments:                      (bits) Value\n\n")
	for _, h := range hits {
		name := h.ID
		if h.Defline != "" {
			name += " " + h.Defline
		}
		if len(name) > 63 {
			name = name[:63]
		}
		fmt.Fprintf(&b, "%-63s  %6.0f  %s\n", name, h.BestBitScore(), formatEValueRef(h.BestEValue()))
	}
	b.WriteString("\n")
	return b.String()
}

func formatEValueRef(e float64) string {
	switch {
	case e < 1e-180:
		return "0.0"
	case e < 1e-2:
		return fmt.Sprintf("%.0e", e)
	case e < 1:
		return fmt.Sprintf("%.2f", e)
	case e < 10:
		return fmt.Sprintf("%.1f", e)
	default:
		return fmt.Sprintf("%.0f", e)
	}
}

// renderCase is one random subject: a query and subject long enough for
// coordinates of five and more digits, and a result whose HSPs sit in them.
type renderCase struct {
	query *seq.Sequence
	subj  []byte
	res   *SubjectResult
	m     *matrix.Matrix
}

// randomEValue draws an E-value at or beside one of FormatEValue's
// boundaries, or anywhere from 1e-300 to 1e6.
func randomEValue(rng *rand.Rand) float64 {
	bounds := []float64{1e-180, 1e-2, 1, 10}
	switch rng.Intn(4) {
	case 0:
		b := bounds[rng.Intn(len(bounds))]
		return []float64{math.Nextafter(b, 0), b, math.Nextafter(b, math.Inf(1))}[rng.Intn(3)]
	case 1:
		return []float64{0, 0.005, 0.995, 0.5, 9.95, 9.949999, 0.125, 2.5, 1e300}[rng.Intn(9)]
	default:
		return math.Pow(10, -300+306*rng.Float64())
	}
}

// randomTrace builds an alignment trace of n columns; long insertion and
// deletion runs make all-gap panel lines on either side.
func randomTrace(rng *rand.Rand, n int) []EditOp {
	trace := make([]EditOp, 0, n)
	for len(trace) < n {
		op := EditOp(OpSub)
		run := 1 + rng.Intn(20)
		switch rng.Intn(6) {
		case 0:
			op = OpIns
		case 1:
			op = OpDel
		case 2:
			op, run = []EditOp{OpIns, OpDel}[rng.Intn(2)], 60+rng.Intn(70)
		}
		for i := 0; i < run && len(trace) < n; i++ {
			trace = append(trace, op)
		}
	}
	return trace
}

// renderSpan is the query and subject length: coordinates of up to six
// digits.
const renderSpan = 120_000

// renderSequences draws one query and one subject of renderSpan residues,
// mostly strict residues with now and then an ambiguity code, the subject
// carrying stretches of the query so identities are not all chance.
func renderSequences(rng *rand.Rand, alpha *seq.Alphabet) (*seq.Sequence, []byte) {
	residues := func() []byte {
		r := make([]byte, renderSpan)
		for i := range r {
			if rng.Intn(30) == 0 {
				r[i] = byte(alpha.StrictSize() + rng.Intn(alpha.Size()-alpha.StrictSize()))
			} else {
				r[i] = byte(rng.Intn(alpha.StrictSize()))
			}
		}
		return r
	}
	query := &seq.Sequence{ID: "q" + alpha.Kind().String(), Residues: residues(), Alpha: alpha}
	subj := residues()
	for i := 0; i < 200; i++ {
		copy(subj[rng.Intn(renderSpan):], query.Residues[rng.Intn(renderSpan):][:rng.Intn(600)])
	}
	return query, subj
}

func randomRenderCase(rng *rand.Rand, query *seq.Sequence, subj []byte, m *matrix.Matrix) renderCase {
	res := &SubjectResult{OID: rng.Intn(1 << 20), ID: fmt.Sprintf("s%d", rng.Intn(1<<20)), SubjLen: len(subj)}
	switch rng.Intn(4) {
	case 0:
	case 1:
		res.Defline = "short description"
	case 2:
		res.Defline = strings.Repeat("long description ", 1+rng.Intn(8))
	case 3:
		res.Defline = "protéine à domaine ß " + strings.Repeat("é", rng.Intn(40))
	}
	for h := 0; h < 1+rng.Intn(3); h++ {
		hsp := &HSP{Score: rng.Intn(5000) - 10, BitScore: float64(rng.Intn(200000)) / 100, EValue: randomEValue(rng)}
		if rng.Intn(4) == 0 {
			hsp.BitScore += 0.05 // a half at the printed precision
		}
		var alen int
		if rng.Intn(3) == 0 {
			// Implicit ungapped trace.
			alen = 1 + rng.Intn(300)
		} else {
			alen = 1 + rng.Intn(400)
			hsp.Trace = randomTrace(rng, alen)
		}
		qn, sn := alen, alen
		if hsp.Trace != nil {
			qn, sn = 0, 0
			for _, op := range hsp.Trace {
				if op != OpIns {
					qn++
				}
				if op != OpDel {
					sn++
				}
			}
		}
		// Start coordinates of one to six digits, so the five-column start
		// field is both padded and overrun.
		lim := []int{10, 2000, renderSpan}[rng.Intn(3)]
		hsp.QueryFrom = rng.Intn(min(lim, renderSpan-qn))
		hsp.SubjFrom = rng.Intn(min(lim, renderSpan-sn))
		hsp.QueryTo, hsp.SubjTo = hsp.QueryFrom+qn, hsp.SubjFrom+sn
		if err := hsp.Validate(); err != nil {
			panic(err)
		}
		res.HSPs = append(res.HSPs, hsp)
	}
	return renderCase{query: query, subj: subj, res: res, m: m}
}

// TestAppendHitDifferential holds AppendHit, RenderHit, RenderSummary and
// stats.FormatEValue byte for byte to the fmt-based
// renderers over seeded random subjects: protein and DNA, both formats,
// gapped and implicit-trace HSPs, empty, long and non-ASCII deflines,
// coordinates past the five-column start field, all-gap panel lines and
// E-values on both sides of every FormatEValue boundary.
func TestAppendHitDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2033))
	pq, ps := renderSequences(rng, seq.ProteinAlphabet)
	dq, ds := renderSequences(rng, seq.DNAAlphabet)
	for i := 0; i < 1000; i++ {
		kind, c := seq.Protein, renderCase{}
		if i%2 == 0 {
			c = randomRenderCase(rng, pq, ps, matrix.BLOSUM62)
		} else {
			kind, c = seq.DNA, randomRenderCase(rng, dq, ds, matrix.DNADefault)
		}
		if want, got := formatHitRef(c.query, c.subj, c.res, c.m), RenderHit(FormatPairwise, c.query, c.subj, c.res, c.m); got != want {
			t.Fatalf("case %d (%v): pairwise block differs from the fmt oracle\n--- got ---\n%s--- want ---\n%s", i, kind, got, want)
		}
		if want, got := renderTabularRef(c.query, c.subj, c.res, c.m), RenderHit(FormatTabular, c.query, c.subj, c.res, c.m); got != want {
			t.Fatalf("case %d (%v): tabular lines differ from the fmt oracle\n got %q\nwant %q", i, kind, got, want)
		}
		// Appending to a non-empty buffer leaves its prefix and appends the
		// same block.
		prefix := []byte("prefix")
		for _, f := range []ReportFormat{FormatPairwise, FormatTabular} {
			got := AppendHit(prefix[:len(prefix):len(prefix)], f, c.query, c.subj, c.res, c.m)
			if want := "prefix" + RenderHit(f, c.query, c.subj, c.res, c.m); string(got) != want {
				t.Fatalf("case %d: AppendHit(%v) onto a prefix differs", i, f)
			}
		}
		for _, h := range c.res.HSPs {
			if got, want := stats.FormatEValue(h.EValue), formatEValueRef(h.EValue); got != want {
				t.Fatalf("FormatEValue(%g) = %q, want %q", h.EValue, got, want)
			}
		}
		hits := []*SubjectResult{c.res}
		if want, got := formatSummaryRef(hits), RenderSummary(FormatPairwise, hits); got != want {
			t.Fatalf("case %d: summary rows differ from the fmt oracle\n got %q\nwant %q", i, got, want)
		}
	}
	if got, want := RenderSummary(FormatPairwise, nil), formatSummaryRef(nil); got != want {
		t.Fatalf("empty summary = %q, want %q", got, want)
	}
}
