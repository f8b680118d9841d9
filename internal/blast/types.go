// Package blast implements a from-scratch BLAST search kernel: query word
// indexing with neighbourhood words, two-hit seeding, ungapped and gapped
// X-drop extension, Karlin–Altschul statistics, and NCBI-style pairwise
// report formatting.
//
// It is the search-engine substrate of the parblast reproduction: both the
// mpiBLAST baseline and the pioBLAST engine call the same kernel, matching
// the paper ("the sequence search kernel is identical to that in mpiBLAST").
//
// The kernel searches one query at a time against a Fragment — a set of
// subject sequences. Every unit of algorithmic work is tallied into
// WorkCounters so that the cluster simulation can charge deterministic
// virtual time for search compute.
package blast

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"parblast/internal/matrix"
	"parblast/internal/seq"
	"parblast/internal/stats"
)

// Subject is one database sequence inside a fragment. OID is the global
// ordinal of the sequence within the whole database, so results from
// different fragments can be merged without ambiguity.
type Subject struct {
	OID      int
	ID       string
	Defline  string
	Residues []byte
}

// Fragment is a set of subjects: the unit a worker searches.
type Fragment struct {
	Subjects []Subject
}

// TotalResidues sums the residue counts of all subjects.
func (f *Fragment) TotalResidues() int64 {
	var n int64
	for i := range f.Subjects {
		n += int64(len(f.Subjects[i].Residues))
	}
	return n
}

// EditOp is one column of a pairwise alignment trace.
type EditOp byte

const (
	// OpSub aligns a query residue with a subject residue.
	OpSub EditOp = iota
	// OpIns consumes a subject residue against a gap in the query.
	OpIns
	// OpDel consumes a query residue against a gap in the subject.
	OpDel
)

// HSP is a high-scoring segment pair: one local alignment between the query
// and a subject. Coordinates are 0-based half-open ranges into the residue
// slices.
type HSP struct {
	QueryFrom, QueryTo int
	SubjFrom, SubjTo   int
	Score              int
	BitScore           float64
	EValue             float64
	// Trace holds one EditOp per alignment column, query-from to query-to.
	// A nil Trace on an ungapped HSP means the implicit all-OpSub trace of
	// length QueryTo-QueryFrom; render-time consumers go through Ops(),
	// which synthesizes it from a shared arena without allocating per HSP.
	Trace []EditOp
}

// allSubArena serves implicit ungapped traces: OpSub == 0, so any prefix of
// a zeroed slice IS a valid all-substitution trace. Slices handed out are
// never written to, and a too-small arena is replaced (not grown in place),
// so outstanding slices stay valid.
var allSubArena struct {
	mu  sync.Mutex
	ops []EditOp
}

func allSubTrace(n int) []EditOp {
	allSubArena.mu.Lock()
	if len(allSubArena.ops) < n {
		grown := n
		if grown < 1024 {
			grown = 1024
		}
		allSubArena.ops = make([]EditOp, grown)
	}
	t := allSubArena.ops[:n]
	allSubArena.mu.Unlock()
	return t
}

// Ops returns the alignment trace, synthesizing the implicit all-OpSub
// trace of ungapped HSPs. The returned slice must not be mutated.
func (h *HSP) Ops() []EditOp {
	if h.Trace == nil {
		return allSubTrace(h.QueryTo - h.QueryFrom)
	}
	return h.Trace
}

// AlignLen returns the number of alignment columns.
func (h *HSP) AlignLen() int {
	if h.Trace == nil {
		return h.QueryTo - h.QueryFrom
	}
	return len(h.Trace)
}

// Validate checks that the trace is consistent with the coordinate ranges.
func (h *HSP) Validate() error {
	if h.Trace == nil {
		// Implicit ungapped trace: the spans must match exactly.
		if h.QueryTo-h.QueryFrom != h.SubjTo-h.SubjFrom {
			return fmt.Errorf("blast: ungapped HSP spans (%d,%d) differ",
				h.QueryTo-h.QueryFrom, h.SubjTo-h.SubjFrom)
		}
		return nil
	}
	var q, s int
	for _, op := range h.Trace {
		switch op {
		case OpSub:
			q++
			s++
		case OpIns:
			s++
		case OpDel:
			q++
		default:
			return fmt.Errorf("blast: invalid edit op %d", op)
		}
	}
	if q != h.QueryTo-h.QueryFrom || s != h.SubjTo-h.SubjFrom {
		return fmt.Errorf("blast: trace consumes (%d,%d) residues, coords span (%d,%d)",
			q, s, h.QueryTo-h.QueryFrom, h.SubjTo-h.SubjFrom)
	}
	return nil
}

// Identity counts identical, positive-scoring, and gap columns of the HSP
// given the query and subject residues and the scoring matrix.
func (h *HSP) Identity(query, subj []byte, m *matrix.Matrix) (ident, positive, gaps int) {
	q, s := h.QueryFrom, h.SubjFrom
	for _, op := range h.Ops() {
		switch op {
		case OpSub:
			if query[q] == subj[s] {
				ident++
				positive++
			} else if m.Score(query[q], subj[s]) > 0 {
				positive++
			}
			q++
			s++
		case OpIns:
			gaps++
			s++
		case OpDel:
			gaps++
			q++
		}
	}
	return ident, positive, gaps
}

// SubjectResult gathers all surviving HSPs of one subject for one query,
// ordered best-first.
type SubjectResult struct {
	OID     int
	ID      string
	Defline string
	SubjLen int
	HSPs    []*HSP
}

// BestScore returns the top HSP raw score (0 when empty).
func (r *SubjectResult) BestScore() int {
	if len(r.HSPs) == 0 {
		return 0
	}
	return r.HSPs[0].Score
}

// BestEValue returns the top HSP E-value (+Inf semantics via large value
// when empty).
func (r *SubjectResult) BestEValue() float64 {
	if len(r.HSPs) == 0 {
		return 1e300
	}
	return r.HSPs[0].EValue
}

// BestBitScore returns the top HSP bit score.
func (r *SubjectResult) BestBitScore() float64 {
	if len(r.HSPs) == 0 {
		return 0
	}
	return r.HSPs[0].BitScore
}

// QueryResult is everything one query produced against one fragment.
type QueryResult struct {
	QueryID string
	// Hits is sorted by (EValue asc, Score desc, OID asc).
	Hits []*SubjectResult
	// Work tallies the compute done producing this result.
	Work WorkCounters
}

// SortHits establishes the canonical hit order. The OID tiebreak makes
// merged results deterministic regardless of fragment assignment.
func SortHits(hits []*SubjectResult) {
	sort.Slice(hits, func(i, j int) bool {
		a, b := hits[i], hits[j]
		if a.BestEValue() != b.BestEValue() {
			return a.BestEValue() < b.BestEValue()
		}
		if a.BestScore() != b.BestScore() {
			return a.BestScore() > b.BestScore()
		}
		return a.OID < b.OID
	})
}

// SortHSPs orders HSPs best-first within a subject.
func SortHSPs(hsps []*HSP) {
	sort.Slice(hsps, func(i, j int) bool {
		if hsps[i].Score != hsps[j].Score {
			return hsps[i].Score > hsps[j].Score
		}
		if hsps[i].QueryFrom != hsps[j].QueryFrom {
			return hsps[i].QueryFrom < hsps[j].QueryFrom
		}
		return hsps[i].SubjFrom < hsps[j].SubjFrom
	})
}

// WorkCounters tallies deterministic units of kernel work. The cluster
// simulation converts these into virtual seconds.
type WorkCounters struct {
	// ResiduesScanned counts subject residues passed through the word scan.
	ResiduesScanned int64
	// SeedHits counts query-position/subject-position word matches.
	SeedHits int64
	// UngappedExtensions counts two-hit-triggered ungapped extensions.
	UngappedExtensions int64
	// UngappedCells counts residue comparisons inside ungapped extensions.
	UngappedCells int64
	// GappedExtensions counts gapped DP launches.
	GappedExtensions int64
	// GappedCells counts DP cells evaluated in gapped extensions.
	GappedCells int64
	// TracebackCells counts DP cells walked during traceback.
	TracebackCells int64
	// HSPsFound counts HSPs that survived statistics filtering.
	HSPsFound int64
	// IndexWords counts neighbourhood-word registrations made while
	// building the query lookup table. Rebuilt per (query, fragment), so
	// finer partitioning pays it more often — one source of the paper's
	// Figure 1(b) search-time growth.
	IndexWords int64
}

// Add accumulates other into w.
func (w *WorkCounters) Add(other WorkCounters) {
	w.ResiduesScanned += other.ResiduesScanned
	w.SeedHits += other.SeedHits
	w.UngappedExtensions += other.UngappedExtensions
	w.UngappedCells += other.UngappedCells
	w.GappedExtensions += other.GappedExtensions
	w.GappedCells += other.GappedCells
	w.TracebackCells += other.TracebackCells
	w.HSPsFound += other.HSPsFound
	w.IndexWords += other.IndexWords
}

// Units collapses the counters into a single abstract work measure with
// weights reflecting the relative cost of each operation class. The scan
// loop dominates: each scanned residue pays a lookup-table probe and
// hit-list iteration (tens of ns in NCBI BLAST), while extension DP cells
// are a tight inner loop (a few ns). Getting this ratio right matters
// beyond cost accuracy — it is why per-query search time is balanced
// across workers for database-segmented search, as on the paper's
// platforms.
func (w *WorkCounters) Units() int64 {
	return 16*w.ResiduesScanned +
		4*w.SeedHits +
		2*w.UngappedCells +
		2*w.GappedCells +
		2*w.TracebackCells +
		3*w.IndexWords
}

// Options configures a Searcher. The zero value is not valid; use
// DefaultProteinOptions or DefaultDNAOptions as a base.
type Options struct {
	// Matrix scores residue substitutions.
	Matrix *matrix.Matrix
	// Gaps sets affine gap penalties.
	Gaps matrix.GapPenalties
	// WordSize is the seed word length (3 for blastp, 11 for blastn).
	WordSize int
	// Threshold is the neighbourhood word score threshold T; words scoring
	// ≥ T against a query word enter the lookup table. Ignored for DNA,
	// which uses exact words.
	Threshold int
	// TwoHitWindow enables two-hit seeding with the given window, at most
	// 1<<20; 0 disables it (every seed hit is extended: the blastn mode).
	TwoHitWindow int
	// XDropUngapped and XDropGapped are X-drop cutoffs in bits.
	XDropUngapped float64
	XDropGapped   float64
	// GapTriggerBits: ungapped HSPs scoring at least this many bits get a
	// gapped extension.
	GapTriggerBits float64
	// EValue is the report cutoff (default 10).
	EValue float64
	// MaxTargetSeqs caps reported subjects per query (0 = NCBI default 500).
	MaxTargetSeqs int
	// FilterLowComplexity masks low-complexity query regions for the
	// seeding stage (BLAST's -F option; soft masking — extensions still
	// use the unmasked residues).
	FilterLowComplexity bool
	// SearchThreads bounds the job's kernel slots (QueryBank), which claim
	// the subjects of every rank's search one at a time: 0 means GOMAXPROCS,
	// 1 searches one subject at a time job-wide. Output is byte-identical
	// for every value.
	SearchThreads int
	// OutFormat selects the report rendering (pairwise text by default,
	// or the 12-column tabular format).
	OutFormat ReportFormat
}

// DefaultProteinOptions mirrors blastp defaults.
func DefaultProteinOptions() Options {
	return Options{
		Matrix:         matrix.BLOSUM62,
		Gaps:           matrix.DefaultProteinGaps,
		WordSize:       3,
		Threshold:      11,
		TwoHitWindow:   40,
		XDropUngapped:  7,
		XDropGapped:    15,
		GapTriggerBits: 22,
		EValue:         10,
	}
}

// DefaultDNAOptions mirrors blastn defaults.
func DefaultDNAOptions() Options {
	return Options{
		Matrix:         matrix.DNADefault,
		Gaps:           matrix.DefaultDNAGaps,
		WordSize:       11,
		TwoHitWindow:   0,
		XDropUngapped:  20,
		XDropGapped:    30,
		GapTriggerBits: 22,
		EValue:         10,
	}
}

// Validate checks option consistency.
func (o *Options) Validate() error {
	if o.Matrix == nil {
		return fmt.Errorf("blast: options need a scoring matrix")
	}
	if err := o.Gaps.Validate(); err != nil {
		return err
	}
	if o.WordSize < 2 || o.WordSize > 16 {
		return fmt.Errorf("blast: word size %d out of range [2,16]", o.WordSize)
	}
	if o.Matrix.Alphabet().Kind() == seq.DNA && o.WordSize < 4 {
		return fmt.Errorf("blast: DNA word size %d too small", o.WordSize)
	}
	if o.Matrix.Alphabet().Kind() == seq.Protein && o.WordSize > 5 {
		return fmt.Errorf("blast: protein word size %d too large", o.WordSize)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"EValue", o.EValue}, {"XDropUngapped", o.XDropUngapped}, {"XDropGapped", o.XDropGapped},
		{"GapTriggerBits", o.GapTriggerBits},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("blast: %s must be finite, got %g", f.name, f.v)
		}
	}
	if o.EValue <= 0 {
		return fmt.Errorf("blast: E-value cutoff must be positive, got %g", o.EValue)
	}
	if o.XDropUngapped <= 0 || o.XDropGapped <= 0 {
		return fmt.Errorf("blast: X-drop cutoffs must be positive")
	}
	if o.MaxTargetSeqs < 0 {
		return fmt.Errorf("blast: MaxTargetSeqs=%d must not be negative (0 selects the default)", o.MaxTargetSeqs)
	}
	if o.SearchThreads < 0 {
		return fmt.Errorf("blast: SearchThreads=%d must not be negative (0 selects GOMAXPROCS)", o.SearchThreads)
	}
	// The ceiling keeps Context.ensureDiag's bases in int32.
	if o.TwoHitWindow < 0 || o.TwoHitWindow > 1<<20 {
		return fmt.Errorf("blast: TwoHitWindow=%d must be in [0, %d] (0 selects one-hit seeding)", o.TwoHitWindow, 1<<20)
	}
	if o.OutFormat != FormatPairwise && o.OutFormat != FormatTabular {
		return fmt.Errorf("blast: OutFormat=%d names no report format", int(o.OutFormat))
	}
	return nil
}

// ungappedParams returns the ungapped Karlin–Altschul parameters used for
// bit↔raw conversions of the heuristics.
func (o *Options) ungappedParams() stats.Params {
	p, _ := stats.For(o.Matrix, o.Gaps, false)
	return p
}

// gappedParams returns the parameters used for final statistics.
func (o *Options) gappedParams() stats.Params {
	p, _ := stats.For(o.Matrix, o.Gaps, true)
	return p
}
