// Package engine holds what the two parallel BLAST implementations share:
// the job description, the result-metadata records workers submit for
// merging, the global merge rule, report assembly, wire codecs, and a
// sequential reference implementation.
//
// The paper states that mpiBLAST and pioBLAST produce the same output for
// the same input; in this reproduction that is guaranteed the same way —
// both engines use the identical search kernel, merge rule, and formatting
// code, and differ in *where* work happens and *how* bytes move, which is
// exactly what the paper optimizes.
package engine

import (
	"bytes"
	"fmt"
	"sort"

	"parblast/internal/blast"
	"parblast/internal/formatdb"
	"parblast/internal/seq"
	"parblast/internal/stats"
	"parblast/internal/vfs"
)

// Job describes one parallel search.
type Job struct {
	// DBBase is the formatted database base name on the shared FS.
	DBBase string
	// Queries is the query set, searched in order.
	Queries []*seq.Sequence
	// Options configures the kernel identically on every worker.
	Options blast.Options
	// OutputPath is the single result file on the shared FS.
	OutputPath string
	// Fragments sets the partition granularity. 0 means natural
	// partitioning: one fragment per worker.
	Fragments int
}

// Validate rejects unusable jobs.
func (j *Job) Validate() error {
	if j.DBBase == "" {
		return fmt.Errorf("engine: job needs a database")
	}
	if len(j.Queries) == 0 {
		return fmt.Errorf("engine: job needs at least one query")
	}
	for i, q := range j.Queries {
		if q == nil || q.Alpha == nil {
			return fmt.Errorf("engine: query %d is nil or has no alphabet", i)
		}
	}
	if j.OutputPath == "" {
		return fmt.Errorf("engine: job needs an output path")
	}
	if j.Fragments < 0 {
		return fmt.Errorf("engine: negative fragment count %d", j.Fragments)
	}
	return j.Options.Validate()
}

// HitMeta is what a worker submits to the master for global merging: the
// identification, scores, and formatted-output size of one subject's hit —
// but never the alignment data itself (pioBLAST §3.2) or, in the baseline,
// the data is fetched later per hit.
type HitMeta struct {
	OID      int
	Worker   int // owning worker rank
	ID       string
	Defline  string
	SubjLen  int
	Score    int
	BitScore float64
	EValue   float64
	// NumHSPs is informational; BlockSize is the exact byte length of the
	// formatted alignment block for this subject.
	NumHSPs   int
	BlockSize int64
}

// QueryMeta aggregates one worker's metadata for one query on one fragment.
type QueryMeta struct {
	QueryIndex int
	Fragment   int
	Hits       []HitMeta
	Work       blast.WorkCounters
}

// MergeHits applies the global selection rule: sort by (E-value asc, score
// desc, OID asc) and cap at maxTargets. Both engines and the sequential
// reference share this exact rule, which is what makes outputs identical.
func MergeHits(hits []HitMeta, maxTargets int) []HitMeta {
	sort.Slice(hits, func(i, j int) bool {
		a, b := hits[i], hits[j]
		if a.EValue != b.EValue {
			return a.EValue < b.EValue
		}
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.OID < b.OID
	})
	if maxTargets > 0 && len(hits) > maxTargets {
		hits = hits[:maxTargets]
	}
	return hits
}

// SummaryResults converts merged metadata into the SubjectResult skeletons
// the report summary formatter needs: the best HSP's scores, padded to the
// subject's real HSP count (the tabular summary line counts HSPs).
func SummaryResults(hits []HitMeta) []*blast.SubjectResult {
	out := make([]*blast.SubjectResult, len(hits))
	for i, h := range hits {
		n := h.NumHSPs
		if n < 1 {
			n = 1
		}
		hsps := make([]*blast.HSP, n)
		hsps[0] = &blast.HSP{Score: h.Score, BitScore: h.BitScore, EValue: h.EValue}
		for k := 1; k < n; k++ {
			hsps[k] = &blast.HSP{}
		}
		out[i] = &blast.SubjectResult{
			OID:     h.OID,
			ID:      h.ID,
			Defline: h.Defline,
			SubjLen: h.SubjLen,
			HSPs:    hsps,
		}
	}
	return out
}

// MetaFromResult converts a kernel result into wire metadata; blockSize is
// supplied by the caller, who has rendered (or measured) the block.
func MetaFromResult(worker int, r *blast.SubjectResult, blockSize int64) HitMeta {
	return HitMeta{
		OID:       r.OID,
		Worker:    worker,
		ID:        r.ID,
		Defline:   r.Defline,
		SubjLen:   r.SubjLen,
		Score:     r.BestScore(),
		BitScore:  r.BestBitScore(),
		EValue:    r.BestEValue(),
		NumHSPs:   len(r.HSPs),
		BlockSize: blockSize,
	}
}

// SearchSpaceFor builds the database-global Karlin–Altschul search space
// for one query, identically on every rank.
func SearchSpaceFor(s *blast.Searcher, queryLen int, dbResidues int64, dbSeqs int) stats.SearchSpace {
	return stats.NewSearchSpace(s.GappedParams(), queryLen, dbResidues, dbSeqs)
}

// FragmentFromRecords wraps formatdb records as a kernel fragment.
func FragmentFromRecords(recs []formatdb.Record) *blast.Fragment {
	frag := &blast.Fragment{Subjects: make([]blast.Subject, len(recs))}
	for i, r := range recs {
		frag.Subjects[i] = blast.Subject{
			OID:      r.OID,
			ID:       r.ID,
			Defline:  r.Defline,
			Residues: r.Residues,
		}
	}
	return frag
}

// --- wire codecs -----------------------------------------------------------

// WireQueries is the broadcast payload carrying the query set.
type WireQueries struct {
	IDs          []string
	Descriptions []string
	Residues     [][]byte
	Kind         seq.Kind
}

// PackQueries builds the broadcast payload.
func PackQueries(queries []*seq.Sequence) WireQueries {
	w := WireQueries{Kind: queries[0].Alpha.Kind()}
	for _, q := range queries {
		w.IDs = append(w.IDs, q.ID)
		w.Descriptions = append(w.Descriptions, q.Description)
		w.Residues = append(w.Residues, q.Residues)
	}
	return w
}

// Unpack reconstructs the query sequences.
func (w WireQueries) Unpack() []*seq.Sequence {
	alpha := seq.AlphabetFor(w.Kind)
	out := make([]*seq.Sequence, len(w.IDs))
	for i := range w.IDs {
		out[i] = &seq.Sequence{
			ID:          w.IDs[i],
			Description: w.Descriptions[i],
			Residues:    w.Residues[i],
			Alpha:       alpha,
		}
	}
	return out
}

// WireHit carries the full alignment data of one subject hit — what the
// baseline master fetches per hit, and what its workers would rather not
// send twice.
type WireHit struct {
	OID      int
	ID       string
	Defline  string
	SubjLen  int
	Residues []byte
	HSPs     []WireHSP
}

// WireHSP is the wire form of one HSP.
type WireHSP struct {
	QueryFrom, QueryTo int
	SubjFrom, SubjTo   int
	Score              int
	BitScore           float64
	EValue             float64
	Trace              []byte
}

// PackHit converts a kernel result (plus subject residues) to wire form.
func PackHit(r *blast.SubjectResult, residues []byte) WireHit {
	w := WireHit{
		OID: r.OID, ID: r.ID, Defline: r.Defline, SubjLen: r.SubjLen, Residues: residues,
	}
	for _, h := range r.HSPs {
		// Ops() materializes the implicit all-OpSub trace of ungapped HSPs,
		// keeping the wire bytes identical to the eager-trace era.
		ops := h.Ops()
		trace := make([]byte, len(ops))
		for i, op := range ops {
			trace[i] = byte(op)
		}
		w.HSPs = append(w.HSPs, WireHSP{
			QueryFrom: h.QueryFrom, QueryTo: h.QueryTo,
			SubjFrom: h.SubjFrom, SubjTo: h.SubjTo,
			Score: h.Score, BitScore: h.BitScore, EValue: h.EValue,
			Trace: trace,
		})
	}
	return w
}

// Unpack converts wire form back to a kernel result and subject residues.
func (w WireHit) Unpack() (*blast.SubjectResult, []byte) {
	r := &blast.SubjectResult{
		OID: w.OID, ID: w.ID, Defline: w.Defline, SubjLen: w.SubjLen,
	}
	for _, h := range w.HSPs {
		trace := make([]blast.EditOp, len(h.Trace))
		for i, b := range h.Trace {
			trace[i] = blast.EditOp(b)
		}
		r.HSPs = append(r.HSPs, &blast.HSP{
			QueryFrom: h.QueryFrom, QueryTo: h.QueryTo,
			SubjFrom: h.SubjFrom, SubjTo: h.SubjTo,
			Score: h.Score, BitScore: h.BitScore, EValue: h.EValue,
			Trace: trace,
		})
	}
	return r, w.Residues
}

// --- sequential reference ---------------------------------------------------

// RunSequential searches the whole database with one process and writes the
// report to job.OutputPath on fs. It is the correctness oracle: both
// parallel engines must produce byte-identical output.
func RunSequential(fs *vfs.FS, job *Job) error {
	if err := job.Validate(); err != nil {
		return err
	}
	db, err := formatdb.Open(fs, job.DBBase)
	if err != nil {
		return err
	}
	recs, err := db.ReadAll(fs)
	if err != nil {
		return err
	}
	frag := FragmentFromRecords(recs)
	searcher, err := blast.NewSearcher(job.Options)
	if err != nil {
		return err
	}
	ctx := searcher.NewContext()
	out := fs.Create(job.OutputPath)
	var off int64
	dbInfo := blast.DBInfo{Title: db.Title, NumSeqs: db.NumSeqs, TotalLen: db.TotalResidues}
	for _, q := range job.Queries {
		if err := ctx.SetQuery(q); err != nil {
			return err
		}
		space := SearchSpaceFor(searcher, q.Len(), db.TotalResidues, db.NumSeqs)
		res, err := ctx.SearchFragment(frag, space)
		if err != nil {
			return err
		}
		var text bytes.Buffer
		text.WriteString(blast.RenderHeader(job.Options.OutFormat, db.Kind, q, dbInfo))
		text.WriteString(blast.RenderSummary(job.Options.OutFormat, res.Hits))
		for _, hit := range res.Hits {
			text.WriteString(blast.RenderHit(job.Options.OutFormat, q, frag.Subjects[IndexByOID(frag, hit.OID)].Residues, hit, job.Options.Matrix))
		}
		text.WriteString(blast.RenderFooter(job.Options.OutFormat, searcher.GappedParams(), space, res.Work))
		out.WriteAt(text.Bytes(), off)
		off += int64(text.Len())
	}
	return nil
}

// IndexByOID finds a subject's position in a fragment; fragments built by
// FragmentFromRecords are OID-ordered starting at the first subject's OID.
func IndexByOID(frag *blast.Fragment, oid int) int {
	base := frag.Subjects[0].OID
	i := oid - base
	if i < 0 || i >= len(frag.Subjects) || frag.Subjects[i].OID != oid {
		// Fall back to scan (fragments with gaps).
		for k := range frag.Subjects {
			if frag.Subjects[k].OID == oid {
				return k
			}
		}
		panic(fmt.Sprintf("engine: OID %d not in fragment", oid))
	}
	return i
}
