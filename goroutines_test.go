package parblast_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"parblast"
)

// TestNoGoroutineOutlivesARun is the dynamic half of the linter's
// concurrency-site list (internal/lint/godisc.go): the module spawns
// goroutines in two places — one per rank in mpi.RunConfig, the kernel's
// subject pool in blast.searchParallel — and whatever happens to a run, the
// goroutine count is back at its pre-call value when Cluster.Run or
// Cluster.Serve returns. mpi.TestAbortHygiene and
// blast.TestSearchPoolClaimOrderInvisible hold the same property for each
// site alone; this holds it for both engines end to end, flat and tree
// merge, when the run is clean, recovers from a worker crash, cannot recover
// (every worker killed; a crash in the output phase), is refused by the
// engine's plan, or sheds part of its stream.
func TestNoGoroutineOutlivesARun(t *testing.T) {
	const procs = 4
	seqs, err := parblast.SynthesizeDB(parblast.DBConfig{
		Kind: parblast.Protein, NumSeqs: 120, MeanLen: 150, Seed: 5, FamilySize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := parblast.SampleQueries(seqs, parblast.QueryConfig{TargetBytes: 900, MeanLen: 100, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	trickle, err := parblast.Arrivals(queries, parblast.ArrivalConfig{Rate: 0.5, BatchMean: 2, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	flood, err := parblast.Arrivals(queries, parblast.ArrivalConfig{Rate: 1000, Burst: 4, BatchMean: 2, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	opts := parblast.DefaultProteinOptions()
	opts.SearchThreads = 4

	// outcome is what one call came to; the goroutine check is made on every
	// one of them, the expectations only keep the scenarios honest.
	type outcome struct {
		res   parblast.Result
		stats parblast.ServeStats
		err   error
	}
	for _, eng := range []parblast.Engine{parblast.EnginePioBLAST, parblast.EngineMPIBlast} {
		for _, tree := range []bool{false, true} {
			for _, serve := range []bool{false, true} {
				cluster, err := parblast.NewCluster(procs, parblast.PlatformBladeCluster)
				if err != nil {
					t.Fatal(err)
				}
				db, err := cluster.FormatDB("nr", seqs, "nr")
				if err != nil {
					t.Fatal(err)
				}
				if err := cluster.PrepareFragments("nr", procs-1); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%v tree=%v serve=%v", eng, tree, serve)
				call := func(scenario string, edit func(*parblast.Search), batches []parblast.Batch, admitCap int) outcome {
					t.Helper()
					s := parblast.Search{DB: db, Queries: queries, Output: "out", Options: opts}
					s.Pio.TreeMerge, s.Mpi.TreeMerge = tree, tree
					if edit != nil {
						edit(&s)
					}
					before := runtime.NumGoroutine()
					var o outcome
					if serve {
						o.res, o.stats, o.err = cluster.Serve(eng, s, batches, admitCap)
					} else {
						o.res, o.err = cluster.Run(eng, s)
					}
					// wg.Done is a goroutine's last act, not its exit: give the
					// runtime a moment to retire the stragglers.
					after := runtime.NumGoroutine()
					for i := 0; i < 200 && after > before; i++ {
						time.Sleep(time.Millisecond)
						after = runtime.NumGoroutine()
					}
					if after > before {
						t.Errorf("%s, %s: %d goroutines before the call, %d after (error %v)", name, scenario, before, after, o.err)
					}
					return o
				}
				crash := func(at float64, ranks ...int) func(*parblast.Search) {
					return func(s *parblast.Search) {
						for _, r := range ranks {
							s.Faults = append(s.Faults, parblast.Fault{Rank: r, At: at, Kind: parblast.FaultCrash})
						}
					}
				}

				free := call("clean", nil, trickle, 0)
				if free.err != nil {
					t.Fatalf("%s: clean run failed: %v", name, free.err)
				}

				// One worker dies at a sweep of times across the run (across
				// its middle batch, when it serves): the early ones land in
				// the copy, input and search phases, which recover; the late
				// ones in the output phase, which cannot.
				from, to := 0.0, free.res.Wall
				if serve {
					mid := len(free.stats.BatchStart) / 2
					from, to = free.stats.BatchStart[mid], free.stats.BatchDone[mid]
				}
				recovered, lost := 0, 0
				for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.97} {
					o := call(fmt.Sprintf("worker crash at %.0f%%", 100*frac), crash(from+frac*(to-from), procs-1), trickle, 0)
					switch {
					case o.err != nil:
						lost++
					case o.res.Wall > free.res.Wall:
						recovered++
					}
				}
				// mpiBLAST's serve mode refuses every fault schedule (ROADMAP
				// item 5d), so there the whole sweep is plan rejections.
				if canRecover := !(serve && eng == parblast.EngineMPIBlast); canRecover && recovered == 0 {
					t.Errorf("%s: no crash time of the sweep was recovered from (%d runs lost)", name, lost)
				}
				// A serving worker that dies while a batch is written is
				// found missing at the next batch's broadcast, and recovered.
				if !serve && lost == 0 {
					t.Errorf("%s: no crash time of the sweep reached the output phase", name)
				}
				if o := call("every worker killed", crash(0.3*free.res.Wall, 1, 2, 3), trickle, 0); o.err == nil {
					t.Errorf("%s: a run whose workers all died succeeded", name)
				}

				rejected := func(s *parblast.Search) { s.Pio.QueryBatch = -1 }
				if eng == parblast.EngineMPIBlast {
					rejected = func(s *parblast.Search) { s.Fragments = 2 * procs }
				}
				if o := call("plan rejected", rejected, trickle, 0); o.err == nil {
					t.Errorf("%s: an illegal plan was accepted", name)
				}

				if serve {
					if o := call("stream that sheds", nil, flood, 1); o.err != nil || o.stats.Shed == 0 {
						t.Errorf("%s: flood with admission cap 1: error %v, %d batches shed", name, o.err, o.stats.Shed)
					}
				}
			}
		}
	}
}
