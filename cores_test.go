package parblast_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"parblast"
	"parblast/internal/blast"
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
	// The last worker crashes halfway through the fault-free run's search, with
	// recovery armed; up to its crash it searches aside like every other rank.
	mid := midSearch(t, procs, seqs, queries)
	for _, job := range []struct {
		name               string
		eng                parblast.Engine
		tree, serve, crash bool
	}{
		{"pio one-shot", parblast.EnginePioBLAST, false, false, false},
		{"pio tree", parblast.EnginePioBLAST, true, false, false},
		{"mpi flat", parblast.EngineMPIBlast, false, false, false},
		{"pio serve, shedding", parblast.EnginePioBLAST, false, true, false},
		{"pio crash", parblast.EnginePioBLAST, false, false, true},
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
				if job.crash {
					s.Faults = []parblast.Fault{{Rank: procs - 1, At: mid, Kind: parblast.FaultCrash}}
					s.Pio.FaultTolerant = true
				}
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
				if reg.Snapshot().CounterTotal("mpi.asides") == 0 {
					t.Fatalf("GOMAXPROCS %d: no rank searched aside, so the relation says nothing", cores)
				}
				if job.crash && doc.Metrics.CounterTotal("engine.parts_reissued") == 0 {
					t.Fatalf("GOMAXPROCS %d: fixture: the crash reissued no partition", cores)
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

// midSearch is the virtual time halfway through a fault-free pioBLAST run's
// search: a crash then is recoverable.
func midSearch(t *testing.T, procs int, seqs, queries []*parblast.Sequence) float64 {
	t.Helper()
	cluster, err := parblast.NewCluster(procs, parblast.PlatformAltix)
	if err != nil {
		t.Fatal(err)
	}
	db, err := cluster.FormatDB("nr", seqs, "nr")
	if err != nil {
		t.Fatal(err)
	}
	free, err := cluster.Run(parblast.EnginePioBLAST, parblast.Search{DB: db, Queries: queries, Output: "out"})
	if err != nil {
		t.Fatal(err)
	}
	return 0.5 * (free.Wall - free.Phase.Output)
}

// TestRanksSearchAside: on a job shaped like the benchmark's pio_wide_62 —
// 62 ranks, one fragment each, a handful of queries, one query per batch —
// every worker searches aside once and renders aside once per batch in which
// it has a block to render, and more than one rank is aside at once
// (mpi.aside_peak > 1). The render count is taken from the sequential
// oracle: a (worker, batch) pair renders when the oracle reports a hit of
// that query inside that worker's fragment. With a crash scheduled for every
// worker after the job's end, the count is the same — a crash is seen at its
// time, so a rank with one to come parks like any other — and the output is
// still the sequential oracle's.
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
	renders := renderingWorkers(t, seqs, oracle, procs-1)
	want := int64(procs-1) + renders
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
	t.Logf("fault-free: %d asides (%d renders), peak %d", asides, renders, peak)
	if asides != want || peak <= 1 {
		t.Errorf("fault-free: %d asides, peak %d; want %d (one search per worker, %d renders) and more than one at once", asides, peak, want, renders)
	}
	var late []parblast.Fault
	for w := 1; w < procs; w++ {
		late = append(late, parblast.Fault{Rank: w, At: 100 * free.Wall, Kind: parblast.FaultCrash})
	}
	if _, asides, peak := run(late); asides != want || peak <= 1 {
		t.Errorf("every worker's crash pending: %d asides, peak %d; want %d and more than one at once", asides, peak, want)
	}
}

// renderingWorkers counts the (fragment, query) pairs in which the fragment
// holds a hit the sequential report lists for the query: with one fragment
// per worker and one query per batch, the render asides of a pioBLAST run.
// Every candidate hit is in the report, as no query has more than
// MaxTargetSeqs of them.
func renderingWorkers(t *testing.T, seqs []*parblast.Sequence, oracle []byte, fragments int) int64 {
	t.Helper()
	cluster, err := parblast.NewCluster(1, parblast.PlatformAltix)
	if err != nil {
		t.Fatal(err)
	}
	db, err := cluster.FormatDB("nr", seqs, "nr")
	if err != nil {
		t.Fatal(err)
	}
	parts, err := db.Partition(fragments)
	if err != nil {
		t.Fatal(err)
	}
	partOf := make(map[string]int, len(seqs))
	for p, part := range parts {
		for _, e := range part.Extents {
			for oid := e.OIDFrom; oid < e.OIDFrom+e.To-e.From; oid++ {
				partOf[seqs[oid].ID] = p
			}
		}
	}
	var n int64
	for _, report := range bytes.Split(oracle, []byte(blast.ReportVersion))[1:] {
		hit := make(map[int]bool)
		for _, line := range bytes.Split(report, []byte("\n")) {
			if id, ok := bytes.CutPrefix(line, []byte(">")); ok {
				id, _, _ = bytes.Cut(id, []byte(" "))
				p, ok := partOf[string(id)]
				if !ok {
					t.Fatalf("the oracle reports a hit on %q, which no fragment holds", id)
				}
				hit[p] = true
			}
		}
		n += int64(len(hit))
	}
	return n
}
