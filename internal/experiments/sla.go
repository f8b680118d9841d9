package experiments

import (
	"bytes"
	"fmt"
	"io"

	"parblast/internal/engine"
	"parblast/internal/mpi"
	"parblast/internal/report"
	"parblast/internal/seq"
	"parblast/internal/workload"
)

// The SLA experiment: both engines in serving mode under an open-loop
// arrival stream. Three sweeps per engine:
//
//   - rate: the same batch sequence (same seed — arrival times scale
//     exactly with 1/rate and nothing else changes) pushed at increasing
//     rates. By Lindley's recursion the per-batch queueing delay is weakly
//     non-decreasing in the rate, so "p99 non-decreasing along the rate
//     sweep" is a deterministic gate, not a statistical one.
//   - batch: batch-size distributions at a fixed mid rate — how admission
//     granularity moves the tail.
//   - shed: a bounded admission queue under a bursty overload — the
//     deterministic drop-newest shedding in action (the saturation row).
//
// Every streamed run is verified byte-identical to a one-shot run over
// exactly its admitted queries before the row is reported.

// SLARow is one serving-mode measurement.
type SLARow struct {
	Label     string
	Engine    string
	Procs     int
	Sweep     string // "rate", "batch", or "shed"
	Rate      float64
	Burst     float64
	BatchMean int
	AdmitCap  int
	Arrivals  int
	Admitted  int
	Shed      int
	// Latency is the exact percentile block over ADMITTED queries,
	// measured from each batch's open-loop arrival.
	Latency *report.LatencySummary
	Result  engine.RunResult
}

// SuiteRow flattens the row into the suite artifact's row shape: the
// percentile block rides the summary's query_latency field and the
// admission accounting rides the dedicated sla block.
func (r SLARow) SuiteRow() report.SuiteRow {
	return report.SuiteRow{
		Label:   r.Label,
		Engine:  r.Engine,
		Procs:   r.Procs,
		Summary: report.SummaryOf(r.Result),
		SLA: &report.SLAInfo{
			Sweep:       r.Sweep,
			ArrivalRate: r.Rate,
			Burst:       r.Burst,
			BatchMean:   r.BatchMean,
			AdmitCap:    r.AdmitCap,
			Arrivals:    r.Arrivals,
			Admitted:    r.Admitted,
			Shed:        r.Shed,
			Saturated:   r.Shed > 0,
		},
	}
}

// slaProcs is the serving cluster size.
const slaProcs = 6

// SLA runs the serving-mode sweeps on both engines.
func SLA(lab *Lab) ([]SLARow, error) {
	type stream struct {
		sweep    string
		acfg     workload.ArrivalConfig
		admitCap int
	}
	var streams []stream
	// Rate sweep: identical batch sequence, arrival clock compressed 10×
	// per step. Seed and batch config MUST stay fixed across rates —
	// that is what makes the p99 ordering deterministic.
	for _, rate := range []float64{0.05, 0.5, 5, 50} {
		streams = append(streams, stream{"rate", workload.ArrivalConfig{Rate: rate, BatchMean: 2, Seed: 41}, 0})
	}
	streams = append(streams,
		// Batch-size sweep at the mid rate: per-query admission versus
		// coarse geometric batches.
		stream{"batch", workload.ArrivalConfig{Rate: 5, BatchMean: 1, BatchDist: workload.BatchFixed, Seed: 41}, 0},
		stream{"batch", workload.ArrivalConfig{Rate: 5, BatchMean: 4, BatchDist: workload.BatchGeometric, Seed: 41}, 0},
		// Saturation row: a tight admission queue under a bursty overload
		// must shed deterministically.
		stream{"shed", workload.ArrivalConfig{Rate: 50, Burst: 4, BatchMean: 2, Seed: 41}, 1})
	var rows []SLARow
	for _, eng := range bothEngines {
		for _, s := range streams {
			row, err := runSLASpec(lab, eng, s.sweep, s.acfg, s.admitCap)
			if err != nil {
				return nil, fmt.Errorf("sla %s %s rate=%g batchmean=%d: %w", eng, s.sweep, s.acfg.Rate, s.acfg.BatchMean, err)
			}
			if s.sweep == "shed" && row.Shed == 0 {
				return nil, fmt.Errorf("sla %s shed: overload row shed nothing (rate %g, cap %d)", eng, s.acfg.Rate, s.admitCap)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// runSLASpec executes one streamed run and verifies it byte-identical to a
// one-shot run over its admitted queries.
func runSLASpec(lab *Lab, eng, sweep string, acfg workload.ArrivalConfig, admitCap int) (SLARow, error) {
	row := SLARow{
		Engine: eng, Procs: slaProcs, Sweep: sweep,
		Rate: acfg.Rate, Burst: acfg.Burst, BatchMean: acfg.BatchMean, AdmitCap: admitCap,
		Label: fmt.Sprintf("%s-%s-r%g", eng, sweep, acfg.Rate),
	}
	queries, err := lab.queries(lab.QuerySizes[1])
	if err != nil {
		return row, err
	}
	batches, err := workload.Arrivals(queries, acfg)
	if err != nil {
		return row, err
	}
	res, stats, out, err := slaRun(lab, eng, queries, &engine.Stream{Batches: batches, AdmitCap: admitCap})
	if err != nil {
		return row, err
	}
	row.Arrivals, row.Admitted, row.Shed = stats.Arrivals, stats.Admitted, stats.Shed
	row.Latency = report.LatencySummaryOf(res.QueryLatencies)
	row.Result = res

	// Byte-identity gate: a one-shot run over exactly the admitted queries
	// must reproduce the streamed output file.
	shed := make(map[int]bool, len(stats.ShedSeqs))
	for _, s := range stats.ShedSeqs {
		shed[s] = true
	}
	oracleQueries := queries[:0:0]
	for _, b := range batches {
		if !shed[b.Seq] {
			oracleQueries = append(oracleQueries, b.Queries...)
		}
	}
	_, _, oracleOut, err := slaRun(lab, eng, oracleQueries, nil)
	if err != nil {
		return row, err
	}
	if !bytes.Equal(out, oracleOut) {
		return row, fmt.Errorf("streamed output differs from one-shot over admitted queries (%d vs %d bytes)", len(out), len(oracleOut))
	}
	if len(res.QueryLatencies) != len(oracleQueries) {
		return row, fmt.Errorf("%d latencies for %d admitted queries", len(res.QueryLatencies), len(oracleQueries))
	}
	return row, nil
}

// slaRun stands up a fresh cluster and runs the queries on it — served as
// the stream, or one-shot when there is none — and returns the output file.
func slaRun(lab *Lab, eng string, queries []*seq.Sequence, stream *engine.Stream) (engine.RunResult, engine.ServeStats, []byte, error) {
	r, err := lab.standUp(eng, slaProcs, altix(), 0, queries)
	if err != nil {
		return engine.RunResult{}, engine.ServeStats{}, nil, err
	}
	res, stats, err := r.run(mpi.Config{Cost: lab.Cost}, variant{}, stream)
	if err != nil {
		return engine.RunResult{}, stats, nil, err
	}
	out, err := r.output()
	return res, stats, out, err
}

// PrintSLARows renders the body of the serving-mode sweeps.
func PrintSLARows(w io.Writer, rows []SLARow) {
	fmt.Fprintf(w, "%-18s %-6s %8s %6s %4s | %5s %5s %4s | %8s %8s %8s %8s\n",
		"label", "sweep", "rate", "bmean", "cap",
		"arr", "adm", "shed",
		"p50", "p95", "p99", "max")
	for _, r := range rows {
		ls := r.Latency
		if ls == nil {
			ls = &report.LatencySummary{}
		}
		fmt.Fprintf(w, "%-18s %-6s %8.2f %6d %4d | %5d %5d %4d | %8.3f %8.3f %8.3f %8.3f\n",
			r.Label, r.Sweep, r.Rate, r.BatchMean, r.AdmitCap,
			r.Arrivals, r.Admitted, r.Shed,
			ls.P50, ls.P95, ls.P99, ls.Max)
	}
}
