package blast

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"parblast/internal/matrix"
	"parblast/internal/seq"
	"parblast/internal/stats"
)

// Report formatting mimics the classic NCBI BLAST pairwise text output.
// The format is split into independently renderable pieces because the
// parallel engines divide the work: in pioBLAST the master renders the
// per-query header, one-line summaries, and footer, while the workers render
// the per-subject alignment blocks whose byte sizes drive the collective
// write offsets.

// DBInfo describes the database for report headers.
type DBInfo struct {
	Title    string
	NumSeqs  int
	TotalLen int64
}

// ReportVersion appears in the report banner; fixed so output is
// byte-reproducible.
const ReportVersion = "PARBLAST 1.0.0"

// programName picks the banner program from the alphabet kind.
func programName(k seq.Kind) string {
	if k == seq.DNA {
		return "BLASTN"
	}
	return "BLASTP"
}

// pairwiseHeader renders the per-query report header.
func pairwiseHeader(kind seq.Kind, query *seq.Sequence, db DBInfo) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s\n\n\n", programName(kind), ReportVersion)
	fmt.Fprintf(&b, "Query= %s\n", query.Defline())
	fmt.Fprintf(&b, "         (%d letters)\n\n", query.Len())
	fmt.Fprintf(&b, "Database: %s\n", db.Title)
	fmt.Fprintf(&b, "           %s sequences; %s total letters\n\n",
		comma(int64(db.NumSeqs)), comma(db.TotalLen))
	return b.String()
}

// pairwiseSummary renders the "Sequences producing significant alignments"
// table from hit metadata only (no residue data needed).
func pairwiseSummary(hits []*SubjectResult) string {
	if len(hits) == 0 {
		return " ***** No hits found ******\n\n"
	}
	b := []byte("                                                                 Score    E\n" +
		"Sequences producing significant alignments:                      (bits) Value\n\n")
	for _, h := range hits {
		name := h.ID
		if h.Defline != "" {
			name += " " + h.Defline
		}
		if len(name) > 63 {
			name = name[:63]
		}
		var num [24]byte
		bits := strconv.AppendFloat(num[:0], h.BestBitScore(), 'f', 0, 64)
		b = pad(append(b, name...), utf8.RuneCountInString(name), 63)
		b = append(pad(append(b, "  "...), len(bits), 6), bits...)
		b = append(b, "  "...)
		b = append(stats.AppendEValue(b, h.BestEValue()), '\n')
	}
	return string(append(b, '\n'))
}

// appendPairwise appends the full alignment block for one subject: defline,
// length, and every HSP's score lines and 60-column alignment panels. The
// query and the subject residues must be in the matrix's alphabet.
func appendPairwise(dst []byte, query *seq.Sequence, subj []byte, r *SubjectResult, m *matrix.Matrix) []byte {
	dst = append(append(dst, '>'), r.ID...)
	if r.Defline != "" {
		dst = append(append(dst, ' '), r.Defline...)
	}
	dst = append(dst, "\n          Length = "...)
	dst = append(strconv.AppendInt(dst, int64(r.SubjLen), 10), "\n\n"...)
	for _, h := range r.HSPs {
		dst = appendHSP(dst, query, subj, h, m)
	}
	return dst
}

// appendHSP appends one HSP's score lines and its alignment panels, 60
// columns to a panel, walking the trace once per panel line.
func appendHSP(dst []byte, query *seq.Sequence, subj []byte, h *HSP, m *matrix.Matrix) []byte {
	ident, positive, gaps := h.Identity(query.Residues, subj, m)
	alen := h.AlignLen()
	// Room for the whole HSP up front: its three panel lines take about four
	// bytes a column, and the score lines and coordinates fit in 256.
	dst = slices.Grow(dst, 4*alen+256)
	alpha := m.Alphabet()
	protein := alpha.Kind() == seq.Protein
	dst = append(dst, " Score = "...)
	dst = strconv.AppendFloat(dst, h.BitScore, 'f', 1, 64)
	dst = append(dst, " bits ("...)
	dst = strconv.AppendInt(dst, int64(h.Score), 10)
	dst = stats.AppendEValue(append(dst, "), Expect = "...), h.EValue)
	dst = appendRatio(append(dst, "\n Identities = "...), ident, alen)
	if protein {
		dst = appendRatio(append(dst, ", Positives = "...), positive, alen)
	}
	if gaps > 0 {
		dst = appendRatio(append(dst, ", Gaps = "...), gaps, alen)
	}
	dst = append(dst, "\n\n"...)

	const width = 60
	ops := h.Ops()
	qPos, sPos := h.QueryFrom, h.SubjFrom
	for off := 0; off < alen; off += width {
		panel := ops[off:min(off+width, alen)]
		qConsumed, sConsumed := 0, 0
		for _, op := range panel {
			if op != OpIns {
				qConsumed++
			}
			if op != OpDel {
				sConsumed++
			}
		}
		dst = appendPanelStart(dst, "Query: ", qPos, qConsumed)
		q := qPos
		for _, op := range panel {
			if op == OpIns {
				dst = append(dst, '-')
			} else {
				dst = append(dst, alpha.Letter(query.Residues[q]))
				q++
			}
		}
		dst = append(strconv.AppendInt(append(dst, ' '), int64(q), 10), '\n')
		dst = append(dst, "             "...)
		q, s := qPos, sPos
		for _, op := range panel {
			switch op {
			case OpSub:
				qc, sc := query.Residues[q], subj[s]
				switch {
				case qc == sc && protein:
					dst = append(dst, alpha.Letter(qc))
				case qc == sc:
					dst = append(dst, '|')
				case m.Score(qc, sc) > 0:
					dst = append(dst, '+')
				default:
					dst = append(dst, ' ')
				}
				q++
				s++
			case OpIns:
				dst = append(dst, ' ')
				s++
			case OpDel:
				dst = append(dst, ' ')
				q++
			}
		}
		dst = append(dst, '\n')
		dst = appendPanelStart(dst, "Sbjct: ", sPos, sConsumed)
		s = sPos
		for _, op := range panel {
			if op == OpDel {
				dst = append(dst, '-')
			} else {
				dst = append(dst, alpha.Letter(subj[s]))
				s++
			}
		}
		dst = append(strconv.AppendInt(append(dst, ' '), int64(s), 10), "\n\n"...)
		qPos += qConsumed
		sPos += sConsumed
	}
	return dst
}

// appendPanelStart appends a panel line's label and its left-aligned,
// five-column start coordinate: one past pos, or pos itself on an all-gap
// line, as NCBI prints the previous position there.
func appendPanelStart(dst []byte, label string, pos, consumed int) []byte {
	if consumed > 0 {
		pos++
	}
	start := len(dst) + len(label)
	dst = strconv.AppendInt(append(dst, label...), int64(pos), 10)
	return append(pad(dst, len(dst)-start, 5), ' ')
}

// appendRatio appends "n/d (p%)".
func appendRatio(dst []byte, n, d int) []byte {
	dst = strconv.AppendInt(dst, int64(n), 10)
	dst = strconv.AppendInt(append(dst, '/'), int64(d), 10)
	dst = strconv.AppendInt(append(dst, " ("...), int64(pct(n, d)), 10)
	return append(dst, "%)"...)
}

// pad appends the spaces that widen a field of width columns to to columns:
// after the field, it left-aligns it as fmt's %-Nd and %-Ns do; before, it
// right-aligns it as %Nf does.
func pad(dst []byte, width, to int) []byte {
	for ; width < to; width++ {
		dst = append(dst, ' ')
	}
	return dst
}

// pairwiseFooter renders the per-query statistics trailer.
func pairwiseFooter(p stats.Params, space stats.SearchSpace, work WorkCounters) string {
	var b strings.Builder
	b.WriteString("\nLambda     K      H\n")
	fmt.Fprintf(&b, " %7.3f %7.3f %7.3f\n\n", p.Lambda, p.K, p.H)
	fmt.Fprintf(&b, "Effective length of query: %d\n", space.EffQueryLen)
	fmt.Fprintf(&b, "Effective length of database: %d\n", space.EffDBLen)
	fmt.Fprintf(&b, "Effective search space: %d\n", int64(space.EffQueryLen)*space.EffDBLen)
	fmt.Fprintf(&b, "Number of sequences in database: %d\n", space.DBSeqs)
	fmt.Fprintf(&b, "Number of extensions: %d\n", work.UngappedExtensions)
	fmt.Fprintf(&b, "Number of successful extensions: %d\n", work.GappedExtensions)
	fmt.Fprintf(&b, "Number of HSPs reported: %d\n\n\n", work.HSPsFound)
	return b.String()
}

func pct(n, d int) int {
	if d == 0 {
		return 0
	}
	// The explicit conversion rounds the product before the addition, so no
	// target may fuse the two into one multiply-add and round differently.
	return int(float64(float64(n)/float64(d)*100) + 0.5)
}

// comma renders an integer with thousands separators, as NCBI headers do.
func comma(n int64) string {
	s := fmt.Sprintf("%d", n)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	out := strings.Join(parts, ",")
	if neg {
		out = "-" + out
	}
	return out
}
