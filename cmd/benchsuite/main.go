// Command benchsuite regenerates the paper's evaluation: every table and
// figure of §4 plus the design-choice ablations, printed as rows of
// virtual-time phase breakdowns.
//
// Usage:
//
//	benchsuite [-exp all|fig1a|fig1b|table1|table2|fig3a|fig3b|fig4|ablations|readpath|hetero|faults|mergescale|latency|sla]
//	           [-dbseqs N] [-family N] [-querybytes N] [-mergescale-ranks 32,128]
//	           [-report suite.json]
//
// Times are virtual seconds from the cluster simulation; see EXPERIMENTS.md
// for the paper-vs-measured comparison. -report additionally writes the
// rows as a versioned machine-readable suite artifact (internal/report).
// Host-time performance is measured by the bench/ module, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"parblast/internal/experiments"
	"parblast/internal/report"
)

// suiteRows flattens experiment rows into the artifact's row shape.
func suiteRows(rows []experiments.Row) []report.SuiteRow {
	out := make([]report.SuiteRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, report.SuiteRow{
			Label:      r.Label,
			Engine:     r.Engine,
			Procs:      r.Procs,
			Fragments:  r.Fragments,
			QueryBytes: r.QueryBytes,
			Summary:    report.SummaryOf(r.Result),
		})
	}
	return out
}

// faultSuiteRows flattens fault-tolerance rows; the faulted run's summary
// carries the I/O retry/backoff stats.
func faultSuiteRows(rows []experiments.FaultRow) []report.SuiteRow {
	out := make([]report.SuiteRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, report.SuiteRow{
			Label:   r.Engine,
			Engine:  r.Engine,
			Procs:   r.Procs,
			Summary: report.SummaryOf(r.Result),
		})
	}
	return out
}

const faultsTitle = "Fault tolerance: worker crash at mid-search + transient I/O errors"
const mergeScaleTitle = "Merge scalability: flat master-ingest vs hierarchical tree merge"
const ioTuneTitle = "I/O auto-tuning: learned hints vs fixed heuristics"
const latencyTitle = "Per-query latency and exact critical path (ranks × protocols)"
const slaTitle = "Online serving: latency vs arrival rate, admission shedding (open-loop streams)"

// latencySuiteRows flattens latency-sweep rows into the suite artifact's
// row shape: the percentile block rides the summary's query_latency field,
// and the critical path's dominant blame labels the row.
func latencySuiteRows(rows []experiments.LatencyRow) []report.SuiteRow {
	out := make([]report.SuiteRow, 0, len(rows))
	for _, r := range rows {
		label := r.Protocol
		if r.Path != nil {
			label = fmt.Sprintf("%s dominant=%s", r.Protocol, r.Path.Dominant)
		}
		out = append(out, report.SuiteRow{
			Label:  label,
			Engine: r.Engine,
			Procs:  r.Procs,
			Summary: report.RunSummary{
				Wall:         r.Wall,
				QueryLatency: r.Latency,
			},
		})
	}
	return out
}

// ioTuneSuiteRows flattens tuned-vs-fixed cells into the suite artifact's
// row shape: the tuned wall per (profile, pattern) cell, labelled with the
// learned strategy.
func ioTuneSuiteRows(rows []experiments.IOTuneRow) []report.SuiteRow {
	out := make([]report.SuiteRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, report.SuiteRow{
			Label:  fmt.Sprintf("%s/%s %s", r.Profile, r.Pattern, r.Strategy),
			Engine: "iotune",
			Summary: report.RunSummary{
				Wall: r.TunedS,
			},
		})
	}
	return out
}

// mergeScaleSuiteRows flattens merge-scalability rows into the suite
// artifact's row shape: one row per (ranks, fanout) cell, phase-free.
func mergeScaleSuiteRows(rows []experiments.MergeScaleRow) []report.SuiteRow {
	out := make([]report.SuiteRow, 0, len(rows))
	for _, r := range rows {
		label := "flat"
		if r.Fanout > 0 {
			label = fmt.Sprintf("fanout=%d", r.Fanout)
		}
		out = append(out, report.SuiteRow{
			Label:  label,
			Engine: "mergescale",
			Procs:  r.Ranks,
			Summary: report.RunSummary{
				Wall:        r.WallS,
				OutputBytes: r.OutputBytes,
			},
		})
	}
	return out
}

// slaSuiteRows flattens serving-mode rows into the suite artifact's row
// shape: the percentile block rides the summary's query_latency field and
// the admission accounting rides the dedicated sla block.
func slaSuiteRows(rows []experiments.SLARow) []report.SuiteRow {
	out := make([]report.SuiteRow, 0, len(rows))
	for _, r := range rows {
		summary := report.SummaryOf(r.Result)
		out = append(out, report.SuiteRow{
			Label:   r.Label,
			Engine:  r.Engine,
			Procs:   r.Procs,
			Summary: summary,
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
		})
	}
	return out
}

// parseRankList parses a comma-separated rank-count list ("8,32").
func parseRankList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad rank count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, fig1a, fig1b, table1, table2, fig3a, fig3b, fig4, ablations, readpath, hetero, faults, mergescale, iotune, latency, sla")
	hintsOut := flag.String("hints-out", "", "with -exp iotune (or all): write the learned-hints artifact to this path")
	dbSeqs := flag.Int("dbseqs", 0, "override database sequence count")
	family := flag.Int("family", 0, "override family size (database redundancy)")
	queryBytes := flag.Int("querybytes", 0, "override the default ('150 KB'-equivalent) query set volume")
	mergeRanksFlag := flag.String("mergescale-ranks", "", "comma-separated rank counts for the mergescale sweep (default 32,128,512,1024)")
	reportPath := flag.String("report", "", "write a machine-readable JSON suite artifact to this path")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		os.Exit(1)
	}

	mergeRanks, err := parseRankList(*mergeRanksFlag)
	if err != nil {
		fail(err)
	}

	lab := experiments.DefaultLab()
	if *dbSeqs > 0 {
		lab.DB.NumSeqs = *dbSeqs
	}
	if *family > 0 {
		lab.DB.FamilySize = *family
	}
	if *queryBytes > 0 {
		lab.QuerySizes[2] = *queryBytes
	}

	suite := report.NewSuite(*exp)
	// runIOTune runs the tuned-vs-fixed study, records its suite rows, and
	// optionally persists the learned-hints artifact. IOTune enforces the
	// regression gate itself (tuned ≤ fixed everywhere, strict win
	// somewhere, byte-identity always); rows print even when it trips so
	// the offending cell is visible.
	runIOTune := func() error {
		rows, artifact, err := experiments.IOTune(&lab)
		experiments.PrintIOTuneRows(os.Stdout, rows)
		if err != nil {
			return err
		}
		suite.Experiments = append(suite.Experiments, report.Experiment{
			Name: "iotune", Title: ioTuneTitle, Rows: ioTuneSuiteRows(rows),
		})
		if *hintsOut != "" {
			data, err := artifact.Encode()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*hintsOut, data, 0o644); err != nil {
				return err
			}
			fmt.Printf("learned I/O hints: %d keys → %s\n", len(artifact.Entries), *hintsOut)
		}
		return nil
	}
	switch *exp {
	case "all":
		for _, spec := range experiments.Specs() {
			rows, err := spec.Run(&lab)
			if err != nil {
				fail(fmt.Errorf("%s: %w", spec.Title, err))
			}
			experiments.PrintRows(os.Stdout, spec.Title, rows)
			suite.Experiments = append(suite.Experiments, report.Experiment{
				Name: spec.Name, Title: spec.Title, Rows: suiteRows(rows),
			})
		}
		prep, err := experiments.PrepCost(&lab)
		if err != nil {
			fail(fmt.Errorf("prep cost: %w", err))
		}
		experiments.PrintPrepRows(os.Stdout, prep)
		faults, err := experiments.Faults(&lab)
		if err != nil {
			fail(fmt.Errorf("faults: %w", err))
		}
		experiments.PrintFaultRows(os.Stdout, faults)
		suite.Experiments = append(suite.Experiments, report.Experiment{
			Name: "faults", Title: faultsTitle, Rows: faultSuiteRows(faults),
		})
		msRows, err := experiments.MergeScale(&lab, mergeRanks)
		if err != nil {
			fail(fmt.Errorf("mergescale: %w", err))
		}
		experiments.PrintMergeScaleRows(os.Stdout, msRows)
		suite.Experiments = append(suite.Experiments, report.Experiment{
			Name: "mergescale", Title: mergeScaleTitle, Rows: mergeScaleSuiteRows(msRows),
		})
		if err := runIOTune(); err != nil {
			fail(fmt.Errorf("iotune: %w", err))
		}
		latRows, err := experiments.Latency(&lab)
		if err != nil {
			fail(fmt.Errorf("latency: %w", err))
		}
		experiments.PrintLatencyRows(os.Stdout, latRows)
		suite.Experiments = append(suite.Experiments, report.Experiment{
			Name: "latency", Title: latencyTitle, Rows: latencySuiteRows(latRows),
		})
		slaRows, err := experiments.SLA(&lab)
		if err != nil {
			fail(fmt.Errorf("sla: %w", err))
		}
		experiments.PrintSLARows(os.Stdout, slaRows)
		suite.Experiments = append(suite.Experiments, report.Experiment{
			Name: "sla", Title: slaTitle, Rows: slaSuiteRows(slaRows),
		})
	case "sla":
		// Serving-mode rows carry admission accounting and arrival-anchored
		// percentile blocks (own row shape), so they bypass the generic
		// printer. Every row is byte-identity-gated against a one-shot run
		// over its admitted queries before it is reported.
		rows, err := experiments.SLA(&lab)
		if err != nil {
			fail(err)
		}
		experiments.PrintSLARows(os.Stdout, rows)
		suite.Experiments = append(suite.Experiments, report.Experiment{
			Name: "sla", Title: slaTitle, Rows: slaSuiteRows(rows),
		})
	case "latency":
		// Latency rows carry percentile blocks and the exact critical path
		// (own row shape), so they bypass the generic printer.
		rows, err := experiments.Latency(&lab)
		if err != nil {
			fail(err)
		}
		experiments.PrintLatencyRows(os.Stdout, rows)
		suite.Experiments = append(suite.Experiments, report.Experiment{
			Name: "latency", Title: latencyTitle, Rows: latencySuiteRows(rows),
		})
	case "iotune":
		// Like faults and mergescale, iotune has its own row shape (fixed
		// vs tuned walls, learned decisions), so it bypasses the generic
		// printer.
		if err := runIOTune(); err != nil {
			fail(err)
		}
	case "mergescale":
		// Like faults, mergescale has its own row shape (master-clock merge
		// spans, not phase breakdowns), so it bypasses the generic printer.
		rows, err := experiments.MergeScale(&lab, mergeRanks)
		if err != nil {
			fail(err)
		}
		experiments.PrintMergeScaleRows(os.Stdout, rows)
		suite.Experiments = append(suite.Experiments, report.Experiment{
			Name: "mergescale", Title: mergeScaleTitle, Rows: mergeScaleSuiteRows(rows),
		})
	case "faults":
		// Faults returns its own row shape (recovery overheads, not phase
		// breakdowns), so it bypasses the generic table printer.
		rows, err := experiments.Faults(&lab)
		if err != nil {
			fail(err)
		}
		experiments.PrintFaultRows(os.Stdout, rows)
		suite.Experiments = append(suite.Experiments, report.Experiment{
			Name: "faults", Title: faultsTitle, Rows: faultSuiteRows(rows),
		})
	default:
		var spec *experiments.Spec
		for _, s := range experiments.Specs() {
			if s.Name == *exp {
				s := s
				spec = &s
				break
			}
		}
		if spec == nil {
			fmt.Fprintf(os.Stderr, "benchsuite: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		rows, err := spec.Run(&lab)
		if err != nil {
			fail(err)
		}
		experiments.PrintRows(os.Stdout, spec.Title, rows)
		suite.Experiments = append(suite.Experiments, report.Experiment{
			Name: spec.Name, Title: spec.Title, Rows: suiteRows(rows),
		})
	}

	if *reportPath != "" {
		f, err := os.Create(*reportPath)
		if err != nil {
			fail(err)
		}
		if err := suite.WriteJSON(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("suite report → %s\n", *reportPath)
	}
}
