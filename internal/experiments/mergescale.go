package experiments

import (
	"bytes"
	"fmt"
	"io"

	"parblast"
	"parblast/internal/report"
	"parblast/internal/simtime"
)

// The mergescale experiment scales the paper's §3.2 serialization argument
// past §4's 128 processors on the mpiBLAST engine itself: the smallest query
// set runs at each rank count once with the flat merge — every (query,
// fragment) result message ingested and merged on the master's clock — and
// once per tree fan-out, where workers pre-merge and fold one bundle per
// member up a TreeReduce and the master ingests only its children's. The
// number that matters is the master's output bucket, which carries that
// ingest; the output file must be byte-identical across every variant.

// MergeScaleRanks is the default rank sweep.
var MergeScaleRanks = []int{32, 128, 512, 1024}

// MergeScaleFanouts is the default fan-out sweep; 0 is the flat baseline.
var MergeScaleFanouts = []int{0, 2, 4, 8}

// MergeScaleRow is one (ranks, fanout) measurement.
type MergeScaleRow struct {
	Ranks  int
	Fanout int // 0 = flat master-ingest baseline
	// MasterOutputS is rank 0's output bucket: the merge ingest and the
	// final per-query merge, then the serial fetch and the write, which the
	// tree merge leaves as they are.
	MasterOutputS float64
	// WallS is the slowest rank's clock at exit.
	WallS float64
	// OutputBytes is the size of the result file, so the speedup is read
	// at equal output.
	OutputBytes int64
	// Identical reports whether the result file is byte-identical to the
	// flat run's at the same rank count.
	Identical bool
}

// SuiteRow flattens the row into the suite artifact's row shape: one row
// per (ranks, fanout) cell, phase-free.
func (r MergeScaleRow) SuiteRow() report.SuiteRow {
	label := "flat"
	if r.Fanout > 0 {
		label = fmt.Sprintf("fanout=%d", r.Fanout)
	}
	return report.SuiteRow{
		Label:  label,
		Engine: parblast.EngineMPIBlast.Short(),
		Procs:  r.Ranks,
		Summary: report.RunSummary{
			Wall:        r.WallS,
			OutputBytes: r.OutputBytes,
		},
	}
}

// MergeScale sweeps rank count × merge fan-out. A nil rankCounts runs the
// default sweep; the catalogue passes Lab.MergeRanks, which check.sh shrinks
// for the smoke run.
func MergeScale(lab *Lab, rankCounts []int) ([]MergeScaleRow, error) {
	if rankCounts == nil {
		rankCounts = MergeScaleRanks
	}
	queries, err := lab.queries(lab.QuerySizes[0])
	if err != nil {
		return nil, err
	}
	var rows []MergeScaleRow
	for _, n := range rankCounts {
		var flatOut []byte
		for _, fanout := range MergeScaleFanouts {
			spec := parblast.RunSpec{Engine: parblast.EngineMPIBlast, Procs: n, Search: parblast.Search{
				Mpi: parblast.MpiOptions{TreeMerge: fanout > 0, MergeFanout: fanout}}}
			res, _, out, err := lab.exec(spec, queries)
			if err != nil {
				return nil, fmt.Errorf("mergescale n=%d fanout=%d: %w", n, fanout, err)
			}
			if fanout == 0 {
				flatOut = out
			}
			rows = append(rows, MergeScaleRow{
				Ranks:         n,
				Fanout:        fanout,
				MasterOutputS: res.Clocks[0].Bucket(simtime.PhaseOutput),
				WallS:         res.Wall,
				OutputBytes:   res.OutputBytes,
				Identical:     bytes.Equal(out, flatOut),
			})
		}
	}
	return rows, nil
}

// MergeSpeedup returns flat-vs-tree master-output ratios per rank count,
// taking the best tree fan-out at each n.
func MergeSpeedup(rows []MergeScaleRow) map[int]float64 {
	flat := make(map[int]float64)
	best := make(map[int]float64)
	for _, r := range rows {
		if r.Fanout == 0 {
			flat[r.Ranks] = r.MasterOutputS
		} else if b, seen := best[r.Ranks]; !seen || r.MasterOutputS < b {
			best[r.Ranks] = r.MasterOutputS
		}
	}
	out := make(map[int]float64, len(flat))
	for _, r := range rows {
		if r.Fanout != 0 {
			continue
		}
		if b := best[r.Ranks]; b > 0 {
			out[r.Ranks] = flat[r.Ranks] / b
		}
	}
	return out
}

// PrintMergeScaleRows renders the body of the scaling table with
// per-rank-count speedup of the best tree fan-out over flat.
func PrintMergeScaleRows(w io.Writer, rows []MergeScaleRow) {
	fmt.Fprintf(w, "%6s %8s %14s %10s %12s %10s %9s\n",
		"ranks", "fanout", "masterOutput", "wall", "outBytes", "identical", "speedup")
	speedup := MergeSpeedup(rows)
	for _, r := range rows {
		fan := "flat"
		if r.Fanout > 0 {
			fan = fmt.Sprintf("%d", r.Fanout)
		}
		sp := ""
		if r.Fanout == 0 {
			sp = fmt.Sprintf("%8.1fx", speedup[r.Ranks])
		}
		fmt.Fprintf(w, "%6d %8s %13.6fs %9.4fs %12d %10v %9s\n",
			r.Ranks, fan, r.MasterOutputS, r.WallS, r.OutputBytes, r.Identical, sp)
	}
}
