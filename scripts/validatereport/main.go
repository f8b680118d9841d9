// Command validatereport is the CI gate for telemetry artifacts: it parses
// a run report produced by `parblast -report` and (optionally) a Chrome
// trace produced by `-trace-out`, and fails loudly when either is not the
// document the tooling expects — wrong kind/version, missing metrics
// layers, an exact critical path whose blame does not tile it, or a trace
// Perfetto would refuse.
//
// Usage:
//
//	validatereport -run run.json [-trace trace.json] [-hints hints.json]
//	               [-latency] [-latency-second other.json]
//	validatereport -sla suite.json
//
// -latency additionally gates the per-query latency block: the summary must
// carry exact percentiles (count > 0, p50 ≤ p95 ≤ p99 ≤ max, all finite and
// non-negative). With -latency-second, the block must be byte-identical to
// the one in a second artifact from a repeated run — the determinism check.
//
// -sla gates a benchsuite suite artifact's serving-mode experiment: every
// row must carry a well-formed admission block (arrivals = admitted + shed)
// and monotone latency percentiles, the rate sweep's p99 must be
// non-decreasing per engine (the Lindley-recursion gate), and at least one
// saturation row must have shed work.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"parblast/internal/metrics"
	"parblast/internal/mpiio"
	"parblast/internal/report"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "validatereport: "+format+"\n", args...)
	os.Exit(1)
}

func parseRunFile(path string) report.Run {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	r, err := report.ParseRun(data)
	if err != nil {
		fail("%s: %v", path, err)
	}
	return r
}

func validateRun(path string) report.Run {
	r := parseRunFile(path)
	if r.Summary.Wall <= 0 {
		fail("%s: wall time %g is not positive", path, r.Summary.Wall)
	}
	p := r.ExactPath
	if len(r.Ranks) == 0 || p == nil {
		fail("%s: missing per-rank breakdown or exact_critical_path", path)
	}
	if p.Finish <= 0 {
		fail("%s: exact_critical_path finish %g is not positive", path, p.Finish)
	}
	if got, want := p.Blame.Total(), p.Finish-p.Unexplained; math.Abs(got-want) > 1e-6 {
		fail("%s: exact_critical_path blame does not tile the path: total=%g want=%g", path, got, want)
	}
	for _, layer := range []string{"mpi.", "vfs.", "mpiio.", "blast.", "engine."} {
		if !r.Metrics.HasPrefix(layer) {
			fail("%s: no metrics from layer %q", path, layer)
		}
	}
	validateMetricsOrder(path, r.Metrics)
	fmt.Printf("%s: ok (%s on %s, %d ranks, %d metric series)\n",
		path, r.Info.Engine, r.Info.Platform, len(r.Ranks), len(r.Metrics.Counters)+len(r.Metrics.Gauges)+len(r.Metrics.Histograms))
	return r
}

// validateLatency gates the per-query latency block: present, populated,
// monotone percentiles, all finite and non-negative.
func validateLatency(path string, r report.Run) {
	ls := r.Summary.QueryLatency
	if ls == nil {
		fail("%s: summary has no query_latency block (run with per-query accounting?)", path)
	}
	if ls.Count <= 0 {
		fail("%s: query_latency count %d is not positive", path, ls.Count)
	}
	for _, q := range []struct {
		name string
		v    float64
	}{{"p50_s", ls.P50}, {"p95_s", ls.P95}, {"p99_s", ls.P99}, {"max_s", ls.Max}} {
		if math.IsNaN(q.v) || math.IsInf(q.v, 0) || q.v < 0 {
			fail("%s: query_latency %s = %g is not a finite non-negative duration", path, q.name, q.v)
		}
	}
	if !(ls.P50 <= ls.P95 && ls.P95 <= ls.P99 && ls.P99 <= ls.Max) {
		fail("%s: query_latency percentiles not monotone: p50=%g p95=%g p99=%g max=%g",
			path, ls.P50, ls.P95, ls.P99, ls.Max)
	}
	fmt.Printf("%s: latency ok (n=%d p50=%.3fs p95=%.3fs p99=%.3fs max=%.3fs)\n",
		path, ls.Count, ls.P50, ls.P95, ls.P99, ls.Max)
}

// validateLatencyDeterminism requires the second artifact's latency block to
// be byte-identical to the first's: same workload, same percentiles, bit for
// bit — the repeated-run determinism contract.
func validateLatencyDeterminism(path string, r report.Run, secondPath string) {
	second := parseRunFile(secondPath)
	if second.Summary.QueryLatency == nil {
		fail("%s: summary has no query_latency block", secondPath)
	}
	a, err := json.Marshal(r.Summary.QueryLatency)
	if err != nil {
		fail("%s: %v", path, err)
	}
	b, err := json.Marshal(second.Summary.QueryLatency)
	if err != nil {
		fail("%s: %v", secondPath, err)
	}
	if string(a) != string(b) {
		fail("latency blocks differ between runs:\n  %s: %s\n  %s: %s", path, a, secondPath, b)
	}
	fmt.Printf("%s vs %s: latency deterministic\n", path, secondPath)
}

// validateMetricsOrder enforces the snapshot's determinism contract: every
// series list is sorted by (name, rank), so two runs of the same seed
// produce byte-identical artifacts.
func validateMetricsOrder(path string, s metrics.Snapshot) {
	checkSorted := func(kind string, n int, at func(int) (string, int)) {
		for i := 1; i < n; i++ {
			pn, pr := at(i - 1)
			cn, cr := at(i)
			if pn > cn || (pn == cn && pr >= cr) {
				fail("%s: %s series out of (name, rank) order: %q rank %d before %q rank %d",
					path, kind, pn, pr, cn, cr)
			}
		}
	}
	checkSorted("counter", len(s.Counters), func(i int) (string, int) {
		return s.Counters[i].Name, s.Counters[i].Rank
	})
	checkSorted("gauge", len(s.Gauges), func(i int) (string, int) {
		return s.Gauges[i].Name, s.Gauges[i].Rank
	})
	checkSorted("histogram", len(s.Histograms), func(i int) (string, int) {
		return s.Histograms[i].Name, s.Histograms[i].Rank
	})
	checkSorted("distribution", len(s.Distributions), func(i int) (string, int) {
		return s.Distributions[i].Name, s.Distributions[i].Rank
	})
}

// validateSLA gates the serving-mode experiment of a suite artifact: a
// well-formed admission block and monotone percentiles on every row,
// per-engine non-decreasing p99 along the rate sweep, and a present
// saturation row (shed > 0).
func validateSLA(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	s, err := report.ParseSuite(data)
	if err != nil {
		fail("%s: %v", path, err)
	}
	var rows []report.SuiteRow
	for _, e := range s.Experiments {
		if e.Name == "sla" {
			rows = e.Rows
		}
	}
	if len(rows) == 0 {
		fail("%s: no sla experiment in suite %q", path, s.Suite)
	}
	shedRows := 0
	lastP99 := make(map[string]float64)
	for _, r := range rows {
		if r.SLA == nil {
			fail("%s: sla row %q has no admission block", path, r.Label)
		}
		a := r.SLA
		if a.Arrivals != a.Admitted+a.Shed {
			fail("%s: row %q: arrivals %d != admitted %d + shed %d",
				path, r.Label, a.Arrivals, a.Admitted, a.Shed)
		}
		if a.Saturated != (a.Shed > 0) {
			fail("%s: row %q: saturated=%v inconsistent with shed=%d", path, r.Label, a.Saturated, a.Shed)
		}
		if a.Shed > 0 {
			shedRows++
		}
		ls := r.Summary.QueryLatency
		if ls == nil || ls.Count <= 0 {
			fail("%s: row %q has no populated query_latency block", path, r.Label)
		}
		if !(ls.P50 <= ls.P95 && ls.P95 <= ls.P99 && ls.P99 <= ls.Max) {
			fail("%s: row %q: percentiles not monotone: p50=%g p95=%g p99=%g max=%g",
				path, r.Label, ls.P50, ls.P95, ls.P99, ls.Max)
		}
		if a.Sweep == "rate" {
			// benchsuite emits rate rows in increasing-rate order per engine;
			// queueing delay (hence p99) must not decrease along the sweep.
			// The epsilon absorbs float rounding in done−arrival when there is
			// no queueing at all and adjacent rates tie exactly.
			if prev, ok := lastP99[r.Engine]; ok && ls.P99 < prev-1e-9 {
				fail("%s: engine %s: p99 decreased along the rate sweep (%g after %g at rate %g)",
					path, r.Engine, ls.P99, prev, a.ArrivalRate)
			}
			lastP99[r.Engine] = ls.P99
		}
	}
	if shedRows == 0 {
		fail("%s: no saturation row shed anything — the admission-cap gate never engaged", path)
	}
	fmt.Printf("%s: sla ok (%d rows, %d engines in rate sweep, %d saturated)\n",
		path, len(rows), len(lastP99), shedRows)
}

func validateTrace(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			ID   string `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		fail("%s: %v", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		fail("%s: no trace events", path)
	}
	spans, flowStarts, flowEnds := 0, 0, 0
	starts := make(map[string]bool)
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
		case "s":
			flowStarts++
			starts[e.ID] = true
		}
	}
	// Every flow finish must pair with a start under the same id — a dangling
	// "f" is an arrow Perfetto cannot draw.
	for _, e := range doc.TraceEvents {
		if e.Ph == "f" {
			flowEnds++
			if !starts[e.ID] {
				fail("%s: flow finish id %q has no matching start", path, e.ID)
			}
		}
	}
	if spans == 0 {
		fail("%s: no complete ('X') span events", path)
	}
	if flowStarts != flowEnds {
		fail("%s: unbalanced flow events: %d starts, %d finishes", path, flowStarts, flowEnds)
	}
	fmt.Printf("%s: ok (%d events, %d spans, %d flows)\n", path, len(doc.TraceEvents), spans, flowStarts)
}

// validateHints parses a learned-hints artifact (parblast -io-tune,
// benchsuite -hints-out) through the same versioned parser the tools load
// it with: kind, version, strictly key-sorted entries, known strategies,
// non-negative numerics.
func validateHints(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	a, err := mpiio.ParseHintsArtifact(data)
	if err != nil {
		fail("%s: %v", path, err)
	}
	fmt.Printf("%s: ok (%s v%d, %d learned keys)\n", path, a.Kind, a.Version, len(a.Entries))
}

func main() {
	runPath := flag.String("run", "", "run-report JSON to validate")
	tracePath := flag.String("trace", "", "Chrome trace JSON to validate")
	hintsPath := flag.String("hints", "", "learned-hints artifact JSON to validate")
	latency := flag.Bool("latency", false, "with -run: require the per-query latency block (present, monotone percentiles)")
	latencySecond := flag.String("latency-second", "", "with -latency: second run report whose latency block must match byte-for-byte")
	slaPath := flag.String("sla", "", "suite artifact JSON whose serving-mode (sla) experiment to gate")
	flag.Parse()
	if *runPath == "" && *tracePath == "" && *hintsPath == "" && *slaPath == "" {
		fail("nothing to validate: pass -run, -trace, -hints, and/or -sla")
	}
	if *latency && *runPath == "" {
		fail("-latency requires -run")
	}
	if *runPath != "" {
		r := validateRun(*runPath)
		if *latency {
			validateLatency(*runPath, r)
			if *latencySecond != "" {
				validateLatencyDeterminism(*runPath, r, *latencySecond)
			}
		}
	}
	if *tracePath != "" {
		validateTrace(*tracePath)
	}
	if *hintsPath != "" {
		validateHints(*hintsPath)
	}
	if *slaPath != "" {
		validateSLA(*slaPath)
	}
}
