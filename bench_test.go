package parblast_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark executes the corresponding experiment
// on the simulated cluster and reports the key virtual-time quantities as
// custom benchmark metrics (suffix "vs" = virtual seconds; "pct" = percent;
// "bytes" = report volume). Run with:
//
//	go test -bench=. -benchmem
//
// The rows themselves (the paper-style tables) are printed once per
// benchmark; EXPERIMENTS.md records the paper-vs-measured comparison.

import (
	"fmt"
	"sync"
	"testing"

	"parblast/internal/experiments"
)

var printOnce sync.Map

func runExperiment(b *testing.B, name string, fn func(*experiments.Lab) ([]experiments.Row, error)) []experiments.Row {
	b.Helper()
	lab := experiments.DefaultLab()
	var rows []experiments.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = fn(&lab)
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, done := printOnce.LoadOrStore(name, true); !done {
		fmt.Printf("\n== %s ==\n", name)
		for _, r := range rows {
			fmt.Printf("%-16s %5d %5d  %v\n", r.Engine, r.Procs, r.Fragments, r.Result)
		}
	}
	return rows
}

func metric(b *testing.B, rows []experiments.Row, pick func(experiments.Row) bool, key string, val func(experiments.Row) float64) {
	for _, r := range rows {
		if pick(r) {
			b.ReportMetric(val(r), key)
			return
		}
	}
	b.Fatalf("no row matched for metric %s", key)
}

// BenchmarkFig1aMpiBlastBreakdown regenerates Figure 1(a): the mpiBLAST
// search/non-search split at 16/32/64 processes on the nt-like workload.
func BenchmarkFig1aMpiBlastBreakdown(b *testing.B) {
	rows := runExperiment(b, "Figure 1(a)", experiments.Fig1a)
	metric(b, rows, func(r experiments.Row) bool { return r.Procs == 16 },
		"srch16_pct", func(r experiments.Row) float64 { return r.Result.SearchFraction() * 100 })
	metric(b, rows, func(r experiments.Row) bool { return r.Procs == 64 },
		"srch64_pct", func(r experiments.Row) float64 { return r.Result.SearchFraction() * 100 })
}

// BenchmarkFig1bFragmentSensitivity regenerates Figure 1(b): mpiBLAST
// execution time versus fragment count at 32 processes.
func BenchmarkFig1bFragmentSensitivity(b *testing.B) {
	rows := runExperiment(b, "Figure 1(b)", experiments.Fig1b)
	metric(b, rows, func(r experiments.Row) bool { return r.Fragments == 31 },
		"total31_vs", func(r experiments.Row) float64 { return r.Result.Wall })
	metric(b, rows, func(r experiments.Row) bool { return r.Fragments == 167 },
		"total167_vs", func(r experiments.Row) float64 { return r.Result.Wall })
}

// BenchmarkTable1Breakdown regenerates Table 1: the per-phase breakdown of
// both engines at 32 processes (the paper's 1354.1 s vs 307.9 s headline).
func BenchmarkTable1Breakdown(b *testing.B) {
	rows := runExperiment(b, "Table 1", experiments.Table1)
	var mpi, pio experiments.Row
	for _, r := range rows {
		if r.Engine == "mpi" {
			mpi = r
		} else {
			pio = r
		}
	}
	b.ReportMetric(mpi.Result.Wall, "mpi_total_vs")
	b.ReportMetric(pio.Result.Wall, "pio_total_vs")
	b.ReportMetric(mpi.Result.Phase.Output, "mpi_output_vs")
	b.ReportMetric(pio.Result.Phase.Output, "pio_output_vs")
	b.ReportMetric(mpi.Result.Wall/pio.Result.Wall, "speedup_x")
}

// BenchmarkTable2OutputSizes regenerates Table 2: the query-size →
// output-size map.
func BenchmarkTable2OutputSizes(b *testing.B) {
	rows := runExperiment(b, "Table 2", experiments.Table2)
	for _, r := range rows {
		b.ReportMetric(float64(r.OutputBytes), fmt.Sprintf("out_q%d_bytes", r.QueryBytes))
	}
}

// BenchmarkFig3aNodeScalability regenerates Figure 3(a): both engines from
// 4 to 62 processes on the Altix platform. The paper's shape: mpiBLAST's
// total starts growing past 31 workers; pioBLAST keeps improving.
func BenchmarkFig3aNodeScalability(b *testing.B) {
	rows := runExperiment(b, "Figure 3(a)", experiments.Fig3a)
	metric(b, rows, func(r experiments.Row) bool { return r.Engine == "mpi" && r.Procs == 32 },
		"mpi32_vs", func(r experiments.Row) float64 { return r.Result.Wall })
	metric(b, rows, func(r experiments.Row) bool { return r.Engine == "mpi" && r.Procs == 62 },
		"mpi62_vs", func(r experiments.Row) float64 { return r.Result.Wall })
	metric(b, rows, func(r experiments.Row) bool { return r.Engine == "pio" && r.Procs == 32 },
		"pio32_vs", func(r experiments.Row) float64 { return r.Result.Wall })
	metric(b, rows, func(r experiments.Row) bool { return r.Engine == "pio" && r.Procs == 62 },
		"pio62_vs", func(r experiments.Row) float64 { return r.Result.Wall })
}

// BenchmarkFig3bOutputScalability regenerates Figure 3(b): both engines at
// 62 processes across the four query/output sizes.
func BenchmarkFig3bOutputScalability(b *testing.B) {
	rows := runExperiment(b, "Figure 3(b)", experiments.Fig3b)
	small, large := 1500, 17000
	metric(b, rows, func(r experiments.Row) bool { return r.Engine == "mpi" && r.QueryBytes == large },
		"mpi_large_vs", func(r experiments.Row) float64 { return r.Result.Wall })
	metric(b, rows, func(r experiments.Row) bool { return r.Engine == "pio" && r.QueryBytes == large },
		"pio_large_vs", func(r experiments.Row) float64 { return r.Result.Wall })
	metric(b, rows, func(r experiments.Row) bool { return r.Engine == "pio" && r.QueryBytes == small },
		"pio_small_vs", func(r experiments.Row) float64 { return r.Result.Wall })
}

// BenchmarkFig4NFSCluster regenerates Figure 4: the scalability study on
// the NFS-backed blade cluster, where both engines degrade but mpiBLAST
// degrades much harder.
func BenchmarkFig4NFSCluster(b *testing.B) {
	rows := runExperiment(b, "Figure 4", experiments.Fig4)
	metric(b, rows, func(r experiments.Row) bool { return r.Engine == "pio" && r.Procs == 4 },
		"pio4_srch_pct", func(r experiments.Row) float64 { return r.Result.SearchFraction() * 100 })
	metric(b, rows, func(r experiments.Row) bool { return r.Engine == "pio" && r.Procs == 32 },
		"pio32_srch_pct", func(r experiments.Row) float64 { return r.Result.SearchFraction() * 100 })
	metric(b, rows, func(r experiments.Row) bool { return r.Engine == "mpi" && r.Procs == 32 },
		"mpi32_srch_pct", func(r experiments.Row) float64 { return r.Result.SearchFraction() * 100 })
}

// BenchmarkAblations measures the design-choice ablations: collective vs
// independent output on both file systems, early score pruning, and
// virtual-fragment granularity.
func BenchmarkAblations(b *testing.B) {
	rows := runExperiment(b, "Ablations", experiments.Ablations)
	find := func(name string) experiments.Row {
		for _, r := range rows {
			if r.Label == name {
				return r
			}
		}
		b.Fatalf("ablation %s missing", name)
		return experiments.Row{}
	}
	coll := find("pio-coll-nfs")
	indep := find("pio-indep-nfs")
	b.ReportMetric(indep.Result.Phase.Output/coll.Result.Phase.Output, "nfs_indep_penalty_x")
	b.ReportMetric(find("pio-frag248").Result.Wall/find("pio-collective").Result.Wall, "frag248_penalty_x")
}
