// Package report serializes one simulated run (or a suite of runs) into a
// single versioned, machine-readable JSON artifact: the run configuration,
// the virtual-time result, a per-rank phase breakdown, the exact critical
// path when the run was traced, and the full unified-telemetry snapshot.
//
// The artifact is the tool-facing counterpart of the CLI's human-readable
// phase table: every experiment emits a comparable document, so regression
// tooling can diff runs across commits without scraping stdout. Artifacts
// are deterministic — the same seed/config yields byte-identical files —
// because every slice is explicitly ordered and Go's encoding/json
// marshals maps with sorted keys.
package report

import (
	"encoding/json"
	"fmt"
	"io"

	"parblast/internal/engine"
	"parblast/internal/metrics"
	"parblast/internal/simtime"
)

// Version is the artifact schema version. Bump on any field removal or
// meaning change; additions are backward-compatible and don't bump.
// Version 2 dropped the run artifact's per-rank-heuristic critical_path
// block; a version-1 artifact still parses, the block ignored.
const Version = 2

// Kind discriminators let a reader reject the wrong artifact flavour.
const (
	KindRun   = "parblast-run"
	KindSuite = "parblast-suite"
)

// RunInfo describes what was run (the inputs, not the outcome).
type RunInfo struct {
	Engine     string            `json:"engine"`
	Platform   string            `json:"platform"`
	Procs      int               `json:"procs"`
	Queries    int               `json:"queries,omitempty"`
	DBSeqs     int               `json:"db_seqs,omitempty"`
	DBResidues int64             `json:"db_residues,omitempty"`
	Extra      map[string]string `json:"extra,omitempty"`
}

// PhaseBreakdown mirrors simtime.Breakdown with JSON tags.
type PhaseBreakdown struct {
	Copy   float64 `json:"copy_s"`
	Input  float64 `json:"input_s"`
	Search float64 `json:"search_s"`
	Output float64 `json:"output_s"`
	Other  float64 `json:"other_s"`
	Total  float64 `json:"total_s"`
}

func phasesOf(b simtime.Breakdown) PhaseBreakdown {
	return PhaseBreakdown{
		Copy: b.Copy, Input: b.Input, Search: b.Search,
		Output: b.Output, Other: b.Other, Total: b.Total,
	}
}

// RunSummary is the outcome of one run in comparable scalar form.
type RunSummary struct {
	Wall            float64        `json:"wall_s"`
	SearchFraction  float64        `json:"search_fraction"`
	Phase           PhaseBreakdown `json:"phase"`
	OutputBytes     int64          `json:"output_bytes"`
	CommBytes       int64          `json:"comm_bytes"`
	ShuffleBytes    int64          `json:"shuffle_bytes"`
	CollectiveBytes int64          `json:"collective_bytes"`
	CommMessages    int64          `json:"comm_messages"`
	IOFaultedOps    int64          `json:"io_faulted_ops"`
	IORetries       int64          `json:"io_retries"`
	IOBackoff       float64        `json:"io_backoff_s"`
	// QueryLatency summarizes per-query end-to-end latency (admission to
	// result-merge completion) when the engine recorded it.
	QueryLatency *LatencySummary `json:"query_latency,omitempty"`
}

// LatencySummary holds exact nearest-rank percentiles over the per-query
// end-to-end latencies — deterministic (virtual-time derived), so the block
// is byte-identical across repeated runs and SearchThreads settings.
type LatencySummary struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50_s"`
	P95   float64 `json:"p95_s"`
	P99   float64 `json:"p99_s"`
	Max   float64 `json:"max_s"`
}

// LatencySummaryOf computes the exact percentile block from raw per-query
// latencies; nil when none were recorded.
func LatencySummaryOf(latencies []float64) *LatencySummary {
	if len(latencies) == 0 {
		return nil
	}
	ls := &LatencySummary{
		Count: len(latencies),
		P50:   metrics.ExactQuantile(latencies, 0.50),
		P95:   metrics.ExactQuantile(latencies, 0.95),
		P99:   metrics.ExactQuantile(latencies, 0.99),
	}
	for _, v := range latencies {
		if v > ls.Max {
			ls.Max = v
		}
	}
	return ls
}

// SummaryOf flattens an engine result into the artifact's summary form.
func SummaryOf(res engine.RunResult) RunSummary {
	return RunSummary{
		Wall:            res.Wall,
		SearchFraction:  res.SearchFraction(),
		Phase:           phasesOf(res.Phase),
		OutputBytes:     res.OutputBytes,
		CommBytes:       res.CommBytes,
		ShuffleBytes:    res.ShuffleBytes,
		CollectiveBytes: res.CollectiveBytes,
		CommMessages:    res.CommMessages,
		IOFaultedOps:    res.IOFaultedOps,
		IORetries:       res.IORetries,
		IOBackoff:       res.IOBackoff,
		QueryLatency:    LatencySummaryOf(res.QueryLatencies),
	}
}

// RankBreakdown is one rank's virtual-time account. Phases includes every
// bucket the rank charged (idle too, unlike the run-level maxima).
type RankBreakdown struct {
	Rank         int                `json:"rank"`
	Finish       float64            `json:"finish_s"`
	Phases       map[string]float64 `json:"phases"`
	IdleFraction float64            `json:"idle_fraction"`
}

// Run is the single-run artifact.
type Run struct {
	Version int             `json:"version"`
	Kind    string          `json:"kind"`
	Info    RunInfo         `json:"info"`
	Summary RunSummary      `json:"summary"`
	Ranks   []RankBreakdown `json:"ranks"`
	// ExactPath is the wait-for analysis of the run's trace (see
	// waitfor.go): the run's one critical-path attribution. Build leaves it
	// nil; a caller that traced the run sets it from ExactCriticalPath.
	ExactPath *ExactPath       `json:"exact_critical_path,omitempty"`
	Metrics   metrics.Snapshot `json:"metrics"`
}

// Build assembles the artifact for one finished run. reg may be nil (the
// metrics block is then empty); res.Clocks may be empty (sequential engine),
// in which case the per-rank block is empty.
func Build(info RunInfo, res engine.RunResult, reg *metrics.Registry) Run {
	r := Run{
		Version: Version,
		Kind:    KindRun,
		Info:    info,
		Summary: SummaryOf(res),
		Ranks:   []RankBreakdown{},
		Metrics: reg.Snapshot(),
	}
	for rank, clock := range res.Clocks {
		rb := RankBreakdown{
			Rank:   rank,
			Finish: clock.Now(),
			Phases: clock.Buckets(),
		}
		if rb.Finish > 0 {
			rb.IdleFraction = clock.Bucket(simtime.PhaseIdle) / rb.Finish
		}
		r.Ranks = append(r.Ranks, rb)
	}
	return r
}

// WriteJSON writes the artifact, indented, with a trailing newline.
func (r Run) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ParseRun reads an artifact back, rejecting wrong kinds and future
// versions.
func ParseRun(data []byte) (Run, error) {
	var r Run
	if err := json.Unmarshal(data, &r); err != nil {
		return Run{}, fmt.Errorf("report: %w", err)
	}
	if r.Kind != KindRun {
		return Run{}, fmt.Errorf("report: artifact kind %q, want %q", r.Kind, KindRun)
	}
	if r.Version < 1 || r.Version > Version {
		return Run{}, fmt.Errorf("report: unsupported artifact version %d (reader supports ≤%d)", r.Version, Version)
	}
	return r, nil
}

// SLAInfo carries serving-mode stream accounting on a suite row: the
// arrival-process configuration plus the admission outcome. Present only on
// rows produced by the SLA experiment (streamed runs). An addition, not a
// meaning change, so the artifact version stays.
type SLAInfo struct {
	// Sweep names the sweep the row belongs to: "rate" (arrival-rate sweep,
	// fixed batch config), "batch" (batch-size sweep, fixed rate), or
	// "shed" (bounded admission queue under overload).
	Sweep string `json:"sweep"`
	// ArrivalRate is the mean batch-arrival rate (batches per virtual
	// second); Burst and BatchMean describe the arrival process.
	ArrivalRate float64 `json:"arrival_rate"`
	Burst       float64 `json:"burst,omitempty"`
	BatchMean   int     `json:"batch_mean,omitempty"`
	// AdmitCap is the admission-queue bound (0 = unbounded).
	AdmitCap int `json:"admit_cap,omitempty"`
	// Arrivals/Admitted/Shed is the stream accounting; Arrivals is always
	// Admitted + Shed.
	Arrivals int `json:"arrivals"`
	Admitted int `json:"admitted"`
	Shed     int `json:"shed"`
	// Saturated marks a row whose bounded queue actually dropped work.
	Saturated bool `json:"saturated,omitempty"`
}

// SuiteRow is one experiment row in a suite artifact.
type SuiteRow struct {
	Label      string     `json:"label,omitempty"`
	Engine     string     `json:"engine"`
	Procs      int        `json:"procs"`
	Fragments  int        `json:"fragments,omitempty"`
	QueryBytes int        `json:"query_bytes,omitempty"`
	Summary    RunSummary `json:"summary"`
	// SLA is present on serving-mode (streamed) rows only.
	SLA *SLAInfo `json:"sla,omitempty"`
}

// Experiment groups a named experiment's rows.
type Experiment struct {
	Name  string     `json:"name"`
	Title string     `json:"title"`
	Rows  []SuiteRow `json:"rows"`
}

// Suite is the multi-run artifact cmd/benchsuite emits.
type Suite struct {
	Version     int          `json:"version"`
	Kind        string       `json:"kind"`
	Suite       string       `json:"suite"`
	Experiments []Experiment `json:"experiments"`
}

// NewSuite returns an empty suite artifact with the version stamped.
func NewSuite(name string) Suite {
	return Suite{Version: Version, Kind: KindSuite, Suite: name, Experiments: []Experiment{}}
}

// WriteJSON writes the suite artifact, indented, with a trailing newline.
func (s Suite) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ParseSuite reads a suite artifact back, rejecting wrong kinds and future
// versions.
func ParseSuite(data []byte) (Suite, error) {
	var s Suite
	if err := json.Unmarshal(data, &s); err != nil {
		return Suite{}, fmt.Errorf("report: %w", err)
	}
	if s.Kind != KindSuite {
		return Suite{}, fmt.Errorf("report: artifact kind %q, want %q", s.Kind, KindSuite)
	}
	if s.Version < 1 || s.Version > Version {
		return Suite{}, fmt.Errorf("report: unsupported artifact version %d (reader supports ≤%d)", s.Version, Version)
	}
	return s, nil
}
