package parblast_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"parblast"
)

// sharedJob is one TestBuiltOncePerWorld row.
type sharedJob struct {
	name      string
	engines   []parblast.Engine
	frags     int
	tree      bool // the tree merge, in the engine's own options block
	configure func(*parblast.Search)
	serve     bool
	// crash kills the last worker: halfway through the fault-free run's
	// search phase, or — serving — just after the first batch is done, so
	// that the second batch merges over fewer ranks.
	crash bool
	// prune marks the early-prune, memory-budget row: one threshold gather
	// per query and one volume gather per job.
	prune bool
}

var pioOnly = []parblast.Engine{parblast.EnginePioBLAST}

// TestBuiltOncePerWorld: what is the same on every rank — the collective I/O
// plan, the decoded broadcast, the gathered early-prune
// scores and batch volumes — is built by the host once per world, however
// many ranks read it, the kernel executor runs one search per fragment
// search, and the output is still the sequential oracle's. The counters are
// the simulator's, booked under rank 0; what the modelled ranks are charged
// is pinned elsewhere (TestClockFingerprint). How many kernel slots a job
// made is host concurrency and no counter: blast.TestQueryBankLendsScratch
// bounds it.
func TestBuiltOncePerWorld(t *testing.T) {
	const procs = 6
	seqs, queries := buildWorkload(t)
	batches, err := parblast.Arrivals(queries, parblast.ArrivalConfig{Rate: 1e6, BatchMean: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []sharedJob{
		{name: "one-shot", engines: bothEngines, frags: 5},
		{name: "tree merge", engines: bothEngines, frags: 5, tree: true},
		{name: "serve", engines: bothEngines, frags: 5, serve: true},
		{name: "serve, tree merge", engines: bothEngines, frags: 5, serve: true, tree: true},
		{name: "collective read", engines: pioOnly, frags: 10, configure: func(s *parblast.Search) {
			s.Pio.CollectiveRead = true
		}},
		{name: "early prune, memory budget", engines: pioOnly, frags: 5, prune: true, configure: func(s *parblast.Search) {
			s.Pio.EarlyPrune, s.Pio.MemoryBudgetBytes = true, 6<<10
		}},
		{name: "mid-search crash", engines: bothEngines, frags: 10, crash: true},
		{name: "mid-search crash, tree merge", engines: bothEngines, frags: 10, crash: true, tree: true},
		{name: "serve, tree merge, crash between batches", engines: pioOnly, frags: 5, serve: true, crash: true, tree: true},
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
					withTreeMerge(eng, &s, job.tree)
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
					_, st, snap, out = run([]parblast.Fault{{Rank: procs - 1, At: at}})
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
				for _, stem := range []string{"mpiio.plan", "engine.bcast_decode", "core.prune_threshold", "core.batch_volumes"} {
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
				if got := total["blast.searches"]; got != searches && !job.crash {
					t.Errorf("kernel searches = %d, want %d: one per fragment search", got, searches)
				} else if job.crash && got <= searches-int64(job.frags) {
					t.Errorf("kernel searches = %d: the crash row searched nothing again", got)
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

// TestTreeMergeBytesPerWorkerFlatInWidth: neither tree protocol sends a
// worker anything that grows with the job's width, such as a list of the
// live ranks in mpiBLAST's release or pioBLAST's final go message. The hits'
// fetches and selections are a fixed total shared by more workers as the job
// widens, so the widths are 65 and 257 ranks: at 17 the fixed total would
// hide a list of ranks. pioBLAST runs with one crash due long after the run
// ends: it never fires, but it arms recovery, the ready/go rendezvous and
// the flat fold. Both widths report the sequential oracle.
func TestTreeMergeBytesPerWorkerFlatInWidth(t *testing.T) {
	seqs, queries := buildWorkload(t)
	oracle := sequentialOracle(t, seqs, queries)
	for _, eng := range bothEngines {
		perWorker := func(procs int) float64 {
			spec := parblast.RunSpec{Engine: eng, Procs: procs, Platform: parblast.PlatformAltix,
				Search: parblast.Search{Queries: queries, Output: "out"}}
			withTreeMerge(eng, &spec.Search, true)
			if eng == parblast.EnginePioBLAST {
				spec.Search.Faults = []parblast.Fault{{Rank: 3, At: 100}}
			}
			cluster, spec, err := parblast.Stage(spec, parblast.DefaultCostModel(), func(c *parblast.Cluster) (*parblast.DB, error) {
				return c.FormatDB("nr", seqs, "nr")
			})
			if err != nil {
				t.Fatal(err)
			}
			res, _, out, err := cluster.Exec(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, oracle) {
				t.Errorf("%v on %d ranks: output differs from the sequential oracle", eng, procs)
			}
			return float64(res.CommBytes) / float64(procs-1)
		}
		narrow, wide := perWorker(65), perWorker(257)
		t.Logf("%v: %.0f bytes per worker on 65 ranks, %.0f on 257", eng, narrow, wide)
		if wide > narrow {
			t.Errorf("%v: %.0f bytes per worker on 257 ranks, more than the %.0f on 65: a message grows with the width", eng, wide, narrow)
		}
	}
}

// jobAllocBudget is TotalAlloc of one job, in MB, at GOMAXPROCS 1, 2 and 4:
// the most that the least of three jobs reached in eight runs, plus ten per
// cent for host-timing variance. How many scratch contexts a job's bank
// creates depends on GOMAXPROCS and on host timing. Before the shuffle, the
// index build, the kernel's arenas and the output path were sized to what a
// job keeps, the two jobs took 3.5 and 5.6 MB at GOMAXPROCS 2.
var jobAllocBudget = map[string]map[int]float64{
	"tree96":  {1: 2.55, 2: 2.67, 4: 3.04},
	"serve16": {1: 2.95, 2: 3.41, 4: 4.33},
}

// TestJobAllocationBudget holds the two job shapes that allocate most per
// byte of report — a 96-rank tree-merge job over three short queries and a
// 16-rank served stream of small batches, each on the benchmark's 600 × 300
// database — to their recorded TotalAlloc: a job allocates what it keeps,
// and a regression shows here before it shows as collector time.
func TestJobAllocationBudget(t *testing.T) {
	seqs, err := parblast.SynthesizeDB(parblast.DBConfig{
		Kind: parblast.Protein, NumSeqs: 600, MeanLen: 300, Seed: 9001, FamilySize: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	procs := runtime.GOMAXPROCS(0)
	if _, ok := jobAllocBudget["tree96"][procs]; !ok {
		t.Skipf("no budget recorded at GOMAXPROCS %d", procs)
	}
	for _, job := range []struct {
		name  string
		ranks int
		qcfg  parblast.QueryConfig
		serve bool
	}{
		{"tree96", 96, parblast.QueryConfig{TargetBytes: 600, MeanLen: 200, MutationRate: 0.05, Seed: 11}, false},
		{"serve16", 16, parblast.QueryConfig{TargetBytes: 3200, MeanLen: 300, MutationRate: 0.05, Seed: 12}, true},
	} {
		queries, err := parblast.SampleQueries(seqs, job.qcfg)
		if err != nil {
			t.Fatal(err)
		}
		batches, err := parblast.Arrivals(queries, parblast.ArrivalConfig{Rate: 16, BatchMean: 2, Seed: 20})
		if err != nil {
			t.Fatal(err)
		}
		least := math.Inf(1)
		for range 3 {
			cluster, err := parblast.NewCluster(job.ranks, parblast.PlatformAltix)
			if err != nil {
				t.Fatal(err)
			}
			db, err := cluster.FormatDB("nr", seqs, "nr")
			if err != nil {
				t.Fatal(err)
			}
			s := parblast.Search{DB: db, Queries: queries, Output: "out"}
			s.Pio.TreeMerge = !job.serve
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if job.serve {
				_, _, err = cluster.Serve(parblast.EnginePioBLAST, s, batches, 8)
			} else {
				_, err = cluster.Run(parblast.EnginePioBLAST, s)
			}
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		}
		budget := jobAllocBudget[job.name][procs]
		t.Logf("%s at GOMAXPROCS %d: %.3f MB, budget %.3f MB", job.name, procs, least, budget)
		if least > budget {
			t.Errorf("%s at GOMAXPROCS %d allocated %.3f MB, over its %.3f MB budget", job.name, procs, least, budget)
		}
	}
}
