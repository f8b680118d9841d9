package experiments

import (
	"fmt"
	"io"

	"parblast"
	"parblast/internal/report"
)

// The latency experiment: the per-query accounting view of the paper's
// serialization argument. Both engines run with causal flow tracing on,
// across rank counts and merge protocols; each run yields the exact
// per-query latency percentiles (admission → result-merge completion) and
// the wait-for analyzer's critical-path blame breakdown. The expected
// shape: mpiBLAST's serialized merge makes later queries wait on earlier
// ones (tail percentiles grow with the query count and the critical path
// blames the master's fetch round-trips), while pioBLAST's batched
// collective output keeps the percentile spread flat.

// LatencyRow is one (protocol, procs) latency measurement.
type LatencyRow struct {
	Protocol string
	Engine   string
	Procs    int
	Wall     float64
	// Latency is the exact per-query percentile block (never nil on a
	// successful run).
	Latency *report.LatencySummary
	// Path is the wait-for analyzer's exact critical path for the run.
	Path *report.ExactPath
}

// SuiteRow flattens the row into the suite artifact's row shape: the
// percentile block rides the summary's query_latency field, and the
// critical path's dominant blame labels the row.
func (r LatencyRow) SuiteRow() report.SuiteRow {
	label := r.Protocol
	if r.Path != nil {
		label = fmt.Sprintf("%s dominant=%s", r.Protocol, r.Path.Dominant)
	}
	return report.SuiteRow{
		Label:  label,
		Engine: r.Engine,
		Procs:  r.Procs,
		Summary: report.RunSummary{
			Wall:         r.Wall,
			QueryLatency: r.Latency,
		},
	}
}

// latencyProtocols is the protocol sweep: both engines, flat and
// hierarchical merge.
var latencyProtocols = []struct {
	name string
	eng  string
	tree bool
}{
	{"mpi-flat", "mpi", false},
	{"mpi-tree", "mpi", true},
	{"pio-flat", "pio", false},
	{"pio-tree", "pio", true},
}

// Latency sweeps ranks × protocols with flow tracing enabled.
func Latency(lab *Lab) ([]LatencyRow, error) {
	var rows []LatencyRow
	for _, procs := range []int{8, 16} {
		for _, p := range latencyProtocols {
			row, err := runLatencySpec(lab, p.eng, p.name, procs, p.tree)
			if err != nil {
				return nil, fmt.Errorf("latency %s p=%d: %w", p.name, procs, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// runLatencySpec executes one protocol on a fresh, traced cluster, then
// folds the trace into the latency/critical-path row.
func runLatencySpec(lab *Lab, eng, proto string, procs int, tree bool) (LatencyRow, error) {
	row := LatencyRow{Protocol: proto, Engine: eng, Procs: procs}
	queries, err := lab.queries(lab.QuerySizes[1])
	if err != nil {
		return row, err
	}
	c, s, err := lab.standUp(eng, procs, parblast.PlatformAltix, 0, queries)
	if err != nil {
		return row, err
	}
	if eng == "pio" {
		s.Pio = parblast.PioOptions{TreeMerge: tree, QueryBatch: 2}
	} else {
		s.Mpi.TreeMerge = tree
	}
	col := c.Trace()
	res, err := c.Run(engines[eng], s)
	if err != nil {
		return row, err
	}
	row.Wall = res.Wall
	row.Latency = report.LatencySummaryOf(res.QueryLatencies)
	row.Path = report.ExactCriticalPath(col)
	return row, nil
}

// PrintLatencyRows renders the body of the latency sweep: the percentile
// table plus the critical-path blame breakdown per run.
func PrintLatencyRows(w io.Writer, rows []LatencyRow) {
	fmt.Fprintf(w, "%-10s %5s %5s | %8s %8s %8s %8s | %-14s %8s %8s %8s %8s %8s\n",
		"protocol", "procs", "n",
		"p50", "p95", "p99", "max",
		"dominant", "net", "peerwait", "io", "search", "other")
	for _, r := range rows {
		ls := r.Latency
		if ls == nil {
			ls = &report.LatencySummary{}
		}
		var blame report.BlameBreakdown
		dominant := "-"
		if r.Path != nil {
			blame = r.Path.Blame
			dominant = r.Path.Dominant
		}
		fmt.Fprintf(w, "%-10s %5d %5d | %8.3f %8.3f %8.3f %8.3f | %-14s %8.3f %8.3f %8.3f %8.3f %8.3f\n",
			r.Protocol, r.Procs, ls.Count,
			ls.P50, ls.P95, ls.P99, ls.Max,
			dominant, blame.Net, blame.PeerNotReady, blame.IO, blame.Search, blame.Other)
	}
}
