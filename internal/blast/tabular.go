package blast

import (
	"fmt"
	"strconv"
	"strings"

	"parblast/internal/matrix"
	"parblast/internal/seq"
	"parblast/internal/stats"
)

// ReportFormat selects how search results are rendered. The parallel
// engines are format-agnostic: they move rendered blocks whose sizes the
// offset computation uses, so any format with per-subject blocks works.
type ReportFormat int

const (
	// FormatPairwise is the classic NCBI pairwise text report (default).
	FormatPairwise ReportFormat = iota
	// FormatTabular is the 12-column tab-separated format with comment
	// headers (NCBI's -outfmt 7 / classic -m 9).
	FormatTabular
)

// String names the format.
func (f ReportFormat) String() string {
	switch f {
	case FormatPairwise:
		return "pairwise"
	case FormatTabular:
		return "tabular"
	default:
		return fmt.Sprintf("ReportFormat(%d)", int(f))
	}
}

// tabularFields is the canonical column list of -outfmt 7.
const tabularFields = "query id, subject id, % identity, alignment length, mismatches, gap opens, q. start, q. end, s. start, s. end, evalue, bit score"

// RenderHeader renders the per-query report header in the given format.
func RenderHeader(f ReportFormat, kind seq.Kind, query *seq.Sequence, db DBInfo) string {
	if f == FormatTabular {
		var b strings.Builder
		fmt.Fprintf(&b, "# %s %s\n", programName(kind), ReportVersion)
		fmt.Fprintf(&b, "# Query: %s\n", query.Defline())
		fmt.Fprintf(&b, "# Database: %s\n", db.Title)
		fmt.Fprintf(&b, "# Fields: %s\n", tabularFields)
		return b.String()
	}
	return pairwiseHeader(kind, query, db)
}

// RenderSummary renders the hit-overview section (the "N hits found" line
// in tabular mode; the score table in pairwise mode).
func RenderSummary(f ReportFormat, hits []*SubjectResult) string {
	if f == FormatTabular {
		n := 0
		for _, h := range hits {
			n += len(h.HSPs)
		}
		return fmt.Sprintf("# %d hits found\n", n)
	}
	return pairwiseSummary(hits)
}

// RenderHit renders one subject's block: the pairwise alignment panels, or
// one tab-separated line per HSP.
func RenderHit(f ReportFormat, query *seq.Sequence, subjResidues []byte, r *SubjectResult, m *matrix.Matrix) string {
	return string(AppendHit(nil, f, query, subjResidues, r, m))
}

// AppendHit appends RenderHit's block to dst and returns the extended
// slice, so a caller renders many blocks into one buffer.
func AppendHit(dst []byte, f ReportFormat, query *seq.Sequence, subjResidues []byte, r *SubjectResult, m *matrix.Matrix) []byte {
	if f == FormatTabular {
		for _, h := range r.HSPs {
			ident, _, _ := h.Identity(query.Residues, subjResidues, m)
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
			dst = append(append(dst, query.ID...), '\t')
			dst = append(append(dst, r.ID...), '\t')
			dst = append(strconv.AppendFloat(dst, pctIdent, 'f', 2, 64), '\t')
			for _, n := range [...]int{alen, mismatches, gapOpens, h.QueryFrom + 1, h.QueryTo, h.SubjFrom + 1, h.SubjTo} {
				dst = append(strconv.AppendInt(dst, int64(n), 10), '\t')
			}
			dst = append(stats.AppendEValue(dst, h.EValue), '\t')
			dst = append(strconv.AppendFloat(dst, h.BitScore, 'f', 1, 64), '\n')
		}
		return dst
	}
	return appendPairwise(dst, query, subjResidues, r, m)
}

// RenderFooter renders the statistics trailer (empty in tabular mode).
func RenderFooter(f ReportFormat, p stats.Params, space stats.SearchSpace, work WorkCounters) string {
	if f == FormatTabular {
		return ""
	}
	return pairwiseFooter(p, space, work)
}
