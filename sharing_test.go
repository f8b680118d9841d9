package parblast_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"parblast"
)

// sharedJob is one TestBuiltOncePerWorld row.
type sharedJob struct {
	name      string
	engines   []parblast.Engine
	frags     int
	configure func(*parblast.Search)
	serve     bool
	// crash kills the last worker: halfway through the fault-free run's
	// search phase, or — serving — just after the first batch is done, so
	// that the second batch merges over a smaller membership.
	crash bool
	// layouts is the number of distinct tree memberships the run merges over.
	layouts int64
	// prune marks the early-prune, memory-budget row: one threshold gather
	// per query and one volume gather per job.
	prune bool
}

var pioOnly = []parblast.Engine{parblast.EnginePioBLAST}

// TestBuiltOncePerWorld: what is the same on every rank — the collective I/O
// plan, the tree layout, the decoded broadcast, the gathered early-prune
// scores and batch volumes — is built by the host once per world, however
// many ranks read it, the kernel scratch is lent once per fragment search,
// and the output is still the sequential oracle's. The counters are the
// simulator's, booked under rank 0; what the modelled ranks are charged is
// pinned elsewhere (TestClockFingerprint). How many scratch contexts a job
// created is host concurrency and no counter: blast.TestQueryBankLendsScratch
// bounds it.
func TestBuiltOncePerWorld(t *testing.T) {
	const procs = 6
	seqs, queries := buildWorkload(t)
	batches, err := parblast.Arrivals(queries, parblast.ArrivalConfig{Rate: 1e6, BatchMean: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	tree := func(s *parblast.Search) { s.Pio.TreeMerge, s.Mpi.TreeMerge = true, true }

	jobs := []sharedJob{
		{name: "one-shot", engines: bothEngines, frags: 5},
		{name: "tree merge", engines: bothEngines, frags: 5, configure: tree, layouts: 1},
		{name: "serve", engines: bothEngines, frags: 5, serve: true},
		{name: "serve, tree merge", engines: bothEngines, frags: 5, serve: true, configure: tree, layouts: 1},
		{name: "collective read", engines: pioOnly, frags: 10, configure: func(s *parblast.Search) {
			s.Pio.CollectiveRead = true
		}},
		{name: "early prune, memory budget", engines: pioOnly, frags: 5, prune: true, configure: func(s *parblast.Search) {
			s.Pio.EarlyPrune, s.Pio.MemoryBudgetBytes = true, 6<<10
		}},
		{name: "mid-search crash", engines: bothEngines, frags: 10, crash: true},
		{name: "mid-search crash, tree merge", engines: bothEngines, frags: 10, crash: true, configure: tree, layouts: 1},
		{name: "serve, tree merge, crash between batches", engines: pioOnly, frags: 5, serve: true, crash: true, configure: tree, layouts: 2},
	}
	for _, job := range jobs {
		for _, eng := range job.engines {
			t.Run(fmt.Sprintf("%v/%s", eng, job.name), func(t *testing.T) {
				run := func(faults []parblast.Fault) (parblast.Result, parblast.ServeStats, parblast.MetricsSnapshot, []byte) {
					cluster, err := parblast.NewCluster(procs, parblast.PlatformAltix)
					if err != nil {
						t.Fatal(err)
					}
					db, err := cluster.FormatDB("nr", seqs, "nr")
					if err != nil {
						t.Fatal(err)
					}
					if eng == parblast.EngineMPIBlast {
						if err := cluster.PrepareFragments("nr", job.frags); err != nil {
							t.Fatal(err)
						}
					}
					s := parblast.Search{DB: db, Queries: queries, Output: "out", Fragments: job.frags, Faults: faults}
					if job.configure != nil {
						job.configure(&s)
					}
					reg := cluster.Metrics()
					var res parblast.Result
					var st parblast.ServeStats
					if job.serve {
						res, st, err = cluster.Serve(eng, s, batches, 2)
					} else {
						res, err = cluster.Run(eng, s)
					}
					if err != nil {
						t.Fatal(err)
					}
					out, err := cluster.ReadOutput("out")
					if err != nil {
						t.Fatal(err)
					}
					return res, st, reg.Snapshot(), out
				}

				res, st, snap, out := run(nil)
				if job.crash {
					at := 0.5 * (res.Wall - res.Phase.Output)
					if job.serve {
						at = st.BatchDone[0] + 1e-9
					}
					_, st, snap, out = run([]parblast.Fault{{Rank: procs - 1, At: at, Kind: parblast.FaultCrash}})
				}
				searched, bcasts, searches := queries, int64(1), int64(job.frags)
				if job.serve {
					if st.Shed == 0 || st.Admitted < 2 {
						t.Fatalf("fixture: want a partly shed stream, got %d admitted, %d shed", st.Admitted, st.Shed)
					}
					searched = nil
					for _, seq := range st.BatchSeq {
						searched = append(searched, batches[seq].Queries...)
					}
					// The job, every admitted batch, the end-of-stream sentinel.
					bcasts += int64(st.Admitted) + 1
					searches *= int64(st.Admitted)
				}

				total := make(map[string]int64)
				atMaster := make(map[string]int64)
				for _, c := range snap.Counters {
					total[c.Name] += c.Value
					if c.Rank == 0 {
						atMaster[c.Name] += c.Value
					}
				}
				for _, stem := range []string{"mpiio.plan", "mpi.tree_layout", "engine.bcast_decode", "core.prune_threshold", "core.batch_volumes"} {
					for _, name := range []string{stem + "_builds", stem + "_reuses"} {
						if total[name] != atMaster[name] {
							t.Errorf("%s booked under a worker rank: who built it is a host artifact", name)
						}
					}
				}

				// The master joins every collective I/O operation and never
				// crashes, so its own count is the number of operations.
				ops := atMaster["mpiio.collective_writes"] + atMaster["mpiio.collective_reads"]
				calls := total["mpiio.collective_writes"] + total["mpiio.collective_reads"]
				if eng == parblast.EnginePioBLAST && ops == 0 {
					t.Fatal("fixture: pioBLAST ran no collective I/O")
				}
				if got := total["mpiio.plan_builds"]; got != ops {
					t.Errorf("plans built = %d, want %d: one per collective I/O operation, not per rank", got, ops)
				}
				if got := total["mpiio.plan_builds"] + total["mpiio.plan_reuses"]; got != calls {
					t.Errorf("plans built + reused = %d, want %d: every participant reads one", got, calls)
				}
				if got := total["engine.bcast_decode_builds"]; got != bcasts {
					t.Errorf("broadcasts decoded = %d, want %d: one per broadcast", got, bcasts)
				}
				if !job.crash {
					if got, want := total["engine.bcast_decode_reuses"], bcasts*(procs-2); got != want {
						t.Errorf("broadcast decodes reused = %d, want %d: every other worker reads the first one's", got, want)
					}
				}
				if got := total["mpi.tree_layout_builds"]; got != job.layouts {
					t.Errorf("tree layouts built = %d, want %d: one per distinct membership", got, job.layouts)
				}
				if job.layouts > 0 && total["mpi.tree_layout_reuses"] < int64(procs-1) {
					t.Errorf("tree layouts reused = %d: the members do not share one", total["mpi.tree_layout_reuses"])
				}
				// Every participant of a gather reads the one decode of it.
				for _, g := range []struct {
					stem    string
					gathers int64
				}{
					{"core.prune_threshold", int64(len(searched))},
					{"core.batch_volumes", 1},
				} {
					if !job.prune {
						g.gathers = 0
					}
					if got := total[g.stem+"_builds"]; got != g.gathers {
						t.Errorf("%s built %d times, want %d: one per gather", g.stem, got, g.gathers)
					}
					if got, want := total[g.stem+"_reuses"], g.gathers*(procs-1); got != want {
						t.Errorf("%s reused %d times, want %d: every other rank reads the first one's", g.stem, got, want)
					}
				}
				if got := total["blast.context_lends"]; got != searches && !job.crash {
					t.Errorf("kernel contexts lent = %d, want %d: one per fragment search", got, searches)
				} else if job.crash && got <= searches-int64(job.frags) {
					t.Errorf("kernel contexts lent = %d: the crash row searched nothing again", got)
				}
				if oracle := sequentialOracle(t, seqs, searched); !bytes.Equal(out, oracle) {
					t.Errorf("output differs from the sequential oracle (%d vs %d bytes)", len(out), len(oracle))
				}
			})
		}
	}
}

// TestMpiBlastFewerSequencesThanFragments: a database with fewer sequences
// than the run has workers is cut into one fragment per sequence
// (PrepareFragments says so), and the baseline runs over those — flat, tree
// and serving — instead of looking for fragments nobody could have cut.
func TestMpiBlastFewerSequencesThanFragments(t *testing.T) {
	const procs = 8
	seqs, err := parblast.SynthesizeDB(parblast.DBConfig{Kind: parblast.Protein, NumSeqs: 5, MeanLen: 120, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := parblast.SampleQueries(seqs, parblast.QueryConfig{TargetBytes: 300, MeanLen: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	batches, err := parblast.Arrivals(queries, parblast.ArrivalConfig{Rate: 2, BatchMean: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	oracle := sequentialOracle(t, seqs, queries)
	for _, mode := range []string{"flat", "tree", "serve"} {
		t.Run(mode, func(t *testing.T) {
			cluster, err := parblast.NewCluster(procs, parblast.PlatformAltix)
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
			s := parblast.Search{DB: db, Queries: queries, Output: "out"}
			s.Mpi.TreeMerge = mode == "tree"
			if mode == "serve" {
				_, _, err = cluster.Serve(parblast.EngineMPIBlast, s, batches, 0)
			} else {
				_, err = cluster.Run(parblast.EngineMPIBlast, s)
			}
			if err != nil {
				t.Fatal(err)
			}
			out, err := cluster.ReadOutput("out")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, oracle) {
				t.Errorf("output differs from the sequential oracle (%d vs %d bytes)", len(out), len(oracle))
			}
		})
	}
}

// TestHostAllocationScalesWithRanks is the scaling law of building once per
// world: the 2 400-sequence × 3-query tree-merge job allocates no more than
// four times as much on 1 024 ranks as on 256 — per-rank state, not per-rank
// copies of per-world state, which grew it twelvefold — and stays under
// 64 MB. Bytes, not seconds: the box has neighbours, the allocator does not.
func TestHostAllocationScalesWithRanks(t *testing.T) {
	seqs, err := parblast.SynthesizeDB(parblast.DBConfig{
		Kind: parblast.Protein, NumSeqs: 2400, MeanLen: 300, Seed: 7, FamilySize: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := parblast.SampleQueries(seqs, parblast.QueryConfig{TargetBytes: 240, MeanLen: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	oracle := sequentialOracle(t, seqs, queries)
	allocated := func(procs int) float64 {
		cluster, err := parblast.NewCluster(procs, parblast.PlatformAltix)
		if err != nil {
			t.Fatal(err)
		}
		db, err := cluster.FormatDB("nr", seqs, "nr")
		if err != nil {
			t.Fatal(err)
		}
		s := parblast.Search{DB: db, Queries: queries, Output: "out"}
		s.Pio.TreeMerge = true
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := cluster.Run(parblast.EnginePioBLAST, s); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		out, err := cluster.ReadOutput("out")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, oracle) {
			t.Errorf("%d ranks: output differs from the sequential oracle (%d vs %d bytes)", procs, len(out), len(oracle))
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	}
	narrow, wide := allocated(256), allocated(1024)
	t.Logf("TotalAlloc of one job: %.1f MB on 256 ranks, %.1f MB on 1024 (×%.1f)", narrow, wide, wide/narrow)
	if wide > 4*narrow {
		t.Errorf("1024 ranks allocate %.1f MB, %.1f× the %.1f MB of 256: want at most the rank ratio, ×4", wide, wide/narrow, narrow)
	}
	if wide >= 64 {
		t.Errorf("1024 ranks allocate %.1f MB, want < 64 MB", wide)
	}
}
