package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"

	"parblast/internal/engine"
	"parblast/internal/mpi"
	"parblast/internal/report"
	"parblast/internal/simtime"
)

// The mergescale experiment isolates the result-merge phase and scales it
// to rank counts no full simulated search could reach on a laptop: every
// worker synthesizes a deterministic per-query metadata set (standing in
// for its search results), then the master collects and merges it either
// flat — one message per worker, every ingest charged to the master's
// clock, the exact bottleneck §4's scalability study runs into — or
// hierarchically via TreeReduce, where group pre-merges run on the
// workers' clocks in parallel and the master only folds its own children's
// pre-merged bundles. The selection layout goes back down the same way
// (per-worker sends vs one TreeBcast). The merged layout must be
// byte-identical across every variant; the number that matters is the
// master-clock span of the merge + selection dispatch.

// MergeScaleRanks is the default rank sweep.
var MergeScaleRanks = []int{32, 128, 512, 1024}

// MergeScaleFanouts is the default fan-out sweep; 0 is the flat baseline.
var MergeScaleFanouts = []int{0, 2, 4, 8}

// MergeScaleRow is one (ranks, fanout) measurement.
type MergeScaleRow struct {
	Ranks  int
	Fanout int // 0 = flat master-ingest baseline
	// MasterMergeS is the master-clock span of collect + merge + selection
	// dispatch: the serial section the tree merge is meant to shrink.
	MasterMergeS float64
	// WallS is the slowest rank's clock at exit.
	WallS float64
	// OutputBytes is the selected output volume (sum of chosen hit
	// blocks) — equal across variants by construction, recorded so the
	// speedup is read at equal output bytes.
	OutputBytes int64
	// Identical reports whether the merged layout is byte-identical to
	// the flat baseline's at the same rank count.
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
		Engine: "mergescale",
		Procs:  r.Ranks,
		Summary: report.RunSummary{
			Wall:        r.WallS,
			OutputBytes: r.OutputBytes,
		},
	}
}

// Synthetic workload shape. Hit counts vary per (worker, query) so the
// per-query candidate lists are ragged; the cap is far below the total so
// every interior merge actually selects.
const (
	msQueries    = 4
	msMaxTargets = 16
	msTagMeta    = 11
	msTagSel     = 12
)

// msWorkerMetas synthesizes worker w's per-query hit metadata. OIDs are
// globally unique (disjoint per worker), E-values are drawn from a small
// set so cross-worker ties exercise the (E-value, score, OID) total order.
func msWorkerMetas(w int) []engine.QueryMeta {
	rng := rand.New(rand.NewSource(int64(w)*7919 + 17))
	evalues := []float64{1e-30, 1e-12, 1e-7, 1e-3, 0.5}
	metas := make([]engine.QueryMeta, 0, msQueries)
	for q := 0; q < msQueries; q++ {
		nh := 4 + rng.Intn(5)
		hits := make([]engine.HitMeta, 0, nh)
		for h := 0; h < nh; h++ {
			hits = append(hits, engine.HitMeta{
				OID:       w*10000 + q*100 + h,
				Worker:    w,
				Score:     40 + rng.Intn(200),
				EValue:    evalues[rng.Intn(len(evalues))],
				BlockSize: int64(200 + rng.Intn(400)),
			})
		}
		metas = append(metas, engine.QueryMeta{
			QueryIndex: q,
			Fragment:   w,
			Hits:       engine.MergeHits(hits, msMaxTargets),
		})
	}
	return metas
}

// msLayoutBytes sums the selected block sizes of a merged layout.
func msLayoutBytes(metas []engine.QueryMeta) int64 {
	var total int64
	for _, qm := range metas {
		for _, h := range qm.Hits {
			total += h.BlockSize
		}
	}
	return total
}

// msCombiner charges one message-ingest plus per-item merge work to the
// combining rank's clock — the same accounting the flat master pays, just
// spread across the tree.
func msCombiner(r *mpi.Rank) func(a, b []byte) []byte {
	return func(a, b []byte) []byte {
		am, err := engine.DecodeQueryMetas(a)
		if err != nil {
			panic(err)
		}
		bm, err := engine.DecodeQueryMetas(b)
		if err != nil {
			panic(err)
		}
		cost := r.Cost()
		r.Advance(cost.ResultMsgCost + float64(engine.MergeCost(am, bm))*cost.MergeItemCost)
		return engine.EncodeQueryMetas(engine.CombineQueryMetas(am, bm, msMaxTargets))
	}
}

// msRun executes one (ranks, fanout) cell and returns the merged layout,
// the master-clock merge span, and the wall time.
func msRun(cost simtime.CostModel, ranks, fanout int) (layout []byte, mergeS, wallS float64, err error) {
	body := func(r *mpi.Rank) error {
		n := r.Size()
		if r.ID() == 0 {
			start := r.Clock().Now()
			var sel []byte
			if fanout == 0 {
				// Flat baseline: the master ingests every worker's
				// message and pays the whole merge on its own clock.
				var merged []engine.QueryMeta
				for w := 1; w < n; w++ {
					data, _, _ := r.Recv(w, msTagMeta)
					metas, derr := engine.DecodeQueryMetas(data)
					if derr != nil {
						return derr
					}
					r.Advance(cost.ResultMsgCost +
						float64(engine.MergeCost(merged, metas))*cost.MergeItemCost)
					merged = engine.CombineQueryMetas(merged, metas, msMaxTargets)
				}
				sel = engine.EncodeQueryMetas(merged)
				for w := 1; w < n; w++ {
					r.Send(w, msTagSel, sel)
				}
			} else {
				members := make([]int, n)
				for i := range members {
					members[i] = i
				}
				combined, contrib, terr := r.TreeReduce(0, fanout, members,
					engine.EncodeQueryMetas(nil), msCombiner(r))
				if terr != nil {
					return terr
				}
				if len(contrib) != n {
					return fmt.Errorf("mergescale: %d of %d ranks contributed", len(contrib), n)
				}
				sel = combined
				r.TreeBcast(0, fanout, members, sel)
			}
			mergeS = r.Clock().Now() - start
			layout = sel
			return nil
		}
		enc := engine.EncodeQueryMetas(msWorkerMetas(r.ID()))
		if fanout == 0 {
			r.Send(0, msTagMeta, enc)
			sel, _, _ := r.Recv(0, msTagSel)
			if _, derr := engine.DecodeQueryMetas(sel); derr != nil {
				return derr
			}
			return nil
		}
		members := make([]int, r.Size())
		for i := range members {
			members[i] = i
		}
		if _, _, terr := r.TreeReduce(0, fanout, members, enc, msCombiner(r)); terr != nil {
			return terr
		}
		sel := r.TreeBcast(0, fanout, members, nil)
		if _, derr := engine.DecodeQueryMetas(sel); derr != nil {
			return derr
		}
		return nil
	}
	clocks, err := mpi.Run(ranks, cost, body)
	if err != nil {
		return nil, 0, 0, err
	}
	return layout, mergeS, engine.Summarize(clocks, 0).Wall, nil
}

// MergeScale sweeps rank count × merge fan-out. A nil rankCounts runs the
// default sweep; the catalogue passes Lab.MergeRanks, which check.sh shrinks
// for the smoke run.
func MergeScale(lab *Lab, rankCounts []int) ([]MergeScaleRow, error) {
	if rankCounts == nil {
		rankCounts = MergeScaleRanks
	}
	var rows []MergeScaleRow
	for _, n := range rankCounts {
		var flatLayout []byte
		for _, fanout := range MergeScaleFanouts {
			layout, mergeS, wallS, err := msRun(lab.Cost, n, fanout)
			if err != nil {
				return nil, fmt.Errorf("mergescale n=%d fanout=%d: %w", n, fanout, err)
			}
			merged, err := engine.DecodeQueryMetas(layout)
			if err != nil {
				return nil, fmt.Errorf("mergescale n=%d fanout=%d: bad layout: %w", n, fanout, err)
			}
			if fanout == 0 {
				flatLayout = layout
			}
			rows = append(rows, MergeScaleRow{
				Ranks:        n,
				Fanout:       fanout,
				MasterMergeS: mergeS,
				WallS:        wallS,
				OutputBytes:  msLayoutBytes(merged),
				Identical:    bytes.Equal(layout, flatLayout),
			})
		}
	}
	return rows, nil
}

// MergeSpeedup returns flat-vs-tree master-merge ratios per rank count,
// taking the best tree fan-out at each n.
func MergeSpeedup(rows []MergeScaleRow) map[int]float64 {
	flat := make(map[int]float64)
	best := make(map[int]float64)
	for _, r := range rows {
		if r.Fanout == 0 {
			flat[r.Ranks] = r.MasterMergeS
		} else if b, seen := best[r.Ranks]; !seen || r.MasterMergeS < b {
			best[r.Ranks] = r.MasterMergeS
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
		"ranks", "fanout", "masterMerge", "wall", "outBytes", "identical", "speedup")
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
			r.Ranks, fan, r.MasterMergeS, r.WallS, r.OutputBytes, r.Identical, sp)
	}
}
