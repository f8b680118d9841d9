package engine

import (
	"fmt"

	"parblast/internal/simtime"
)

// RunResult summarizes one parallel run.
type RunResult struct {
	// Clocks are the final per-rank virtual clocks.
	Clocks []*simtime.Clock
	// Wall is the slowest rank's virtual finish time — the run's
	// execution time in the paper's sense.
	Wall float64
	// Phase holds, for each phase, the maximum bucket across ranks.
	// Because the engines' phases are globally synchronized (all ranks
	// search, then all merge/output), the per-phase maxima tile the wall
	// time closely and correspond to the paper's stacked bars.
	Phase simtime.Breakdown
	// OutputBytes is the size of the produced result file.
	OutputBytes int64
	// CommBytes totals the result-protocol payload volume (submissions,
	// fetches, selections) sent by all ranks — the paper's §3.2
	// message-volume metric. ShuffleBytes totals the collective-I/O data
	// shuffle (§3.3's deliberate network-for-disk trade), and
	// CollectiveBytes the payloads of collective operations
	// (Bcast/AllGather/Barrier) — kept out of CommBytes so the protocol
	// metric measures the merging protocol alone.
	CommBytes       int64
	ShuffleBytes    int64
	CollectiveBytes int64
	CommMessages    int64
	// IOFaultedOps, IORetries, and IOBackoff surface vfs fault injection in
	// run summaries: accesses that hit a transient fault, the failed
	// attempts paid retrying them, and the cumulative backoff wait charged
	// (summed over every file system the run touched).
	IOFaultedOps int64
	IORetries    int64
	IOBackoff    float64
	// QueryLatencies holds each query's end-to-end virtual latency, indexed
	// by query order: admission (the master's clock when the job metadata
	// broadcast completes) to that query's result-merge completion. Purely
	// virtual-time derived, so the values are byte-identical across repeated
	// runs and across SearchThreads settings. Empty when the engine did not
	// record per-query latency.
	QueryLatencies []float64
}

// Summarize computes Wall and Phase from clocks.
func Summarize(clocks []*simtime.Clock, outputBytes int64) RunResult {
	r := RunResult{Clocks: clocks, OutputBytes: outputBytes}
	for _, c := range clocks {
		if c.Now() > r.Wall {
			r.Wall = c.Now()
		}
		if b := c.Bucket(simtime.PhaseCopy); b > r.Phase.Copy {
			r.Phase.Copy = b
		}
		if b := c.Bucket(simtime.PhaseInput); b > r.Phase.Input {
			r.Phase.Input = b
		}
		if b := c.Bucket(simtime.PhaseSearch); b > r.Phase.Search {
			r.Phase.Search = b
		}
		if b := c.Bucket(simtime.PhaseOutput); b > r.Phase.Output {
			r.Phase.Output = b
		}
		if b := c.Bucket(simtime.PhaseOther); b > r.Phase.Other {
			r.Phase.Other = b
		}
	}
	r.Phase.Total = r.Wall
	return r
}

// SearchFraction returns the share of wall time spent searching — the
// paper's headline scalability metric (e.g. 95.6% → 70.7% for mpiBLAST,
// 92.4% at 61 workers for pioBLAST).
func (r RunResult) SearchFraction() float64 {
	if r.Wall == 0 {
		return 0
	}
	return r.Phase.Search / r.Wall
}

// String renders a Table-1-style row.
func (r RunResult) String() string {
	return fmt.Sprintf("copy=%.1f input=%.1f search=%.1f output=%.1f other=%.1f wall=%.1f out=%dB",
		r.Phase.Copy, r.Phase.Input, r.Phase.Search, r.Phase.Output, r.Phase.Other,
		r.Wall, r.OutputBytes)
}
