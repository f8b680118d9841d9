package parblast_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"parblast"
	"parblast/internal/report"
)

// TestGOMAXPROCSMovesNoByte is the metamorphic relation of searching on every
// core: the ranks' kernels run aside, off the scheduler token, on as many
// cores as the host lends them, and how many that is moves no clock, no
// counter, no trace edge and no output byte. Each job runs at GOMAXPROCS 1, 2
// and 4; its report artifact — summary, per-rank phases, metrics, exact
// critical path — must be byte-identical across the three, and its output
// the sequential oracle's.
func TestGOMAXPROCSMovesNoByte(t *testing.T) {
	const procs = 6
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	seqs, queries := buildWorkload(t)
	// Every batch has arrived before the cluster is warm, so a queue of two
	// admits two batches and sheds the rest.
	flood, err := parblast.Arrivals(queries, parblast.ArrivalConfig{Rate: 1e6, BatchMean: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range []struct {
		name        string
		eng         parblast.Engine
		tree, serve bool
	}{
		{"pio one-shot", parblast.EnginePioBLAST, false, false},
		{"pio tree", parblast.EnginePioBLAST, true, false},
		{"mpi flat", parblast.EngineMPIBlast, false, false},
		{"pio serve, shedding", parblast.EnginePioBLAST, false, true},
	} {
		t.Run(job.name, func(t *testing.T) {
			var want []byte
			for _, cores := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(cores)
				cluster, err := parblast.NewCluster(procs, parblast.PlatformAltix)
				if err != nil {
					t.Fatal(err)
				}
				reg, col := cluster.Metrics(), cluster.Trace()
				db, err := cluster.FormatDB("nr", seqs, "nr")
				if err != nil {
					t.Fatal(err)
				}
				if job.eng == parblast.EngineMPIBlast {
					if err := cluster.PrepareFragments("nr", procs-1); err != nil {
						t.Fatal(err)
					}
				}
				s := parblast.Search{DB: db, Queries: queries, Output: "out"}
				s.Pio.TreeMerge = job.tree
				info := report.RunInfo{Engine: job.eng.String(), Procs: procs}
				res, searched := parblast.Result{}, queries
				if job.serve {
					var st parblast.ServeStats
					res, st, err = cluster.Serve(job.eng, s, flood, 2)
					if err == nil && st.Shed == 0 {
						t.Fatal("fixture: the stream shed nothing")
					}
					searched = nil
					for _, seq := range st.BatchSeq {
						searched = append(searched, flood[seq].Queries...)
					}
					info.Extra = map[string]string{"serve": fmt.Sprintf("%+v", st)}
				} else {
					res, err = cluster.Run(job.eng, s)
				}
				if err != nil {
					t.Fatal(err)
				}
				out, err := cluster.ReadOutput("out")
				if err != nil {
					t.Fatal(err)
				}
				if oracle := sequentialOracle(t, seqs, searched); !bytes.Equal(out, oracle) {
					t.Errorf("GOMAXPROCS %d: output differs from the sequential oracle (%d vs %d bytes)", cores, len(out), len(oracle))
				}
				doc := report.Build(info, res, reg)
				if doc.Metrics.CounterTotal("mpi.asides") == 0 {
					t.Fatalf("GOMAXPROCS %d: no rank searched aside, so the relation says nothing", cores)
				}
				doc.ExactPath = report.ExactCriticalPath(col)
				var art bytes.Buffer
				if err := doc.WriteJSON(&art); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = art.Bytes()
				} else if !bytes.Equal(art.Bytes(), want) {
					t.Errorf("GOMAXPROCS %d: report artifact differs from GOMAXPROCS 1's (%d vs %d bytes)", cores, art.Len(), len(want))
				}
			}
		})
	}
}

// TestRanksSearchAside: on a job shaped like the benchmark's pio_wide_62 —
// 62 ranks, one fragment each, a handful of queries — more than one rank is
// inside the kernel at once (mpi.aside_peak > 1). With a crash scheduled for
// every worker after the job's end, no rank leaves the scheduler token to
// search (a rank with a crash to come keeps it), and the output is still the
// sequential oracle's.
func TestRanksSearchAside(t *testing.T) {
	const procs = 62
	seqs, err := parblast.SynthesizeDB(parblast.DBConfig{
		Kind: parblast.Protein, NumSeqs: 610, MeanLen: 200, Seed: 11, FamilySize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := parblast.SampleQueries(seqs, parblast.QueryConfig{TargetBytes: 1000, MeanLen: 200, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	oracle := sequentialOracle(t, seqs, queries)
	run := func(faults []parblast.Fault) (parblast.Result, int64, int64) {
		t.Helper()
		cluster, err := parblast.NewCluster(procs, parblast.PlatformAltix)
		if err != nil {
			t.Fatal(err)
		}
		reg := cluster.Metrics()
		db, err := cluster.FormatDB("nr", seqs, "nr")
		if err != nil {
			t.Fatal(err)
		}
		res, err := cluster.Run(parblast.EnginePioBLAST, parblast.Search{
			DB: db, Queries: queries, Output: "out", Fragments: procs - 1, Faults: faults,
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := cluster.ReadOutput("out")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, oracle) {
			t.Errorf("%d faults: output differs from the sequential oracle (%d vs %d bytes)", len(faults), len(out), len(oracle))
		}
		snap := reg.Snapshot()
		return res, snap.CounterTotal("mpi.asides"), snap.CounterTotal("mpi.aside_peak")
	}

	free, asides, peak := run(nil)
	t.Logf("fault-free: %d asides, peak %d", asides, peak)
	if asides != procs-1 || peak <= 1 {
		t.Errorf("fault-free: %d asides, peak %d; want one per worker and more than one at once", asides, peak)
	}
	var late []parblast.Fault
	for w := 1; w < procs; w++ {
		late = append(late, parblast.Fault{Rank: w, At: 100 * free.Wall, Kind: parblast.FaultCrash})
	}
	if _, asides, peak := run(late); asides != 0 || peak != 0 {
		t.Errorf("every worker's crash pending: %d asides, peak %d; want none", asides, peak)
	}
}
