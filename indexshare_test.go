package parblast_test

import (
	"bytes"
	"fmt"
	"testing"

	"parblast"
	"parblast/internal/blast"
	"parblast/internal/stats"
)

// indexJob is one TestIndexBuiltOncePerJob row: a way of running the search
// that reaches the workers' search loop by a different path.
type indexJob struct {
	name    string
	engines []parblast.Engine
	// frags is the fragment count: the pio engine's virtual partitions, the
	// baseline's physical fragments.
	frags     int
	tree      bool // the tree merge, in the engine's own options block
	configure func(*parblast.Search)
	serve     bool
	// crashIndexWords makes the row crash the last worker mid-search. It is
	// the blast.index_words total per engine, in the engines order, measured
	// at the commit before the query bank existed (2ecb203): the dead
	// worker's fragments are searched again, so the total is not a product
	// the test can derive.
	crashIndexWords []int64
}

var bothEngines = []parblast.Engine{parblast.EngineMPIBlast, parblast.EnginePioBLAST}

// TestIndexBuiltOncePerJob: however a job reaches the workers' search loop,
// the host builds each distinct query's word index once (once per admitted
// batch when serving, where a settled batch's entries are released), every
// other (rank, fragment, query) step reuses it, the modelled cluster is
// still charged for a build at every step, and the output — for a query set
// that holds the same residues under two IDs — is the sequential oracle's.
func TestIndexBuiltOncePerJob(t *testing.T) {
	const procs = 5
	seqs, queries := buildWorkload(t)
	// The same residues under a second ID, placed so that the serving rows
	// meet it one batch after the original.
	twin := *queries[1]
	twin.ID = "twin-of-" + twin.ID
	queries = append(queries[:2:2], append([]*parblast.Sequence{&twin}, queries[2:]...)...)
	// The serving rows' stream: every batch has arrived before the cluster
	// is warm, so a queue of two admits two batches and sheds the rest.
	batches, err := parblast.Arrivals(queries, parblast.ArrivalConfig{Rate: 1e6, BatchMean: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}

	jobs := []indexJob{
		{name: "one-shot", engines: bothEngines, frags: 4},
		{name: "tree merge", engines: bothEngines, frags: 6, tree: true},
		{name: "serve", engines: bothEngines, frags: 4, serve: true},
		{name: "dynamic+prefetch", engines: []parblast.Engine{parblast.EnginePioBLAST}, frags: 9, configure: func(s *parblast.Search) {
			s.Pio.DynamicAssignment, s.Pio.PrefetchDepth = true, 1
		}},
		{name: "mid-search crash", engines: bothEngines, frags: 9, crashIndexWords: []int64{95433, 97705}},
		{name: "SearchThreads 4", engines: bothEngines, frags: 4, configure: func(s *parblast.Search) {
			s.Options = parblast.DefaultProteinOptions()
			s.Options.SearchThreads = 4
		}},
	}
	for _, job := range jobs {
		for ei, eng := range job.engines {
			t.Run(fmt.Sprintf("%v/%s", eng, job.name), func(t *testing.T) {
				run := func(faults []parblast.Fault) (parblast.Result, parblast.ServeStats, map[string]int64, []byte) {
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
					totals := make(map[string]int64)
					for _, c := range reg.Snapshot().Counters {
						if (c.Name == "blast.index_builds" || c.Name == "blast.index_reuses") && c.Rank != 0 {
							t.Errorf("%s booked under rank %d: which rank built an index is a host artifact", c.Name, c.Rank)
						}
						totals[c.Name] += c.Value
					}
					return res, st, totals, out
				}

				res, st, totals, out := run(nil)
				crash := job.crashIndexWords != nil
				if crash {
					// Crash the last worker halfway through the search
					// phase of the fault-free run.
					at := 0.5 * (res.Wall - res.Phase.Output)
					_, _, totals, out = run([]parblast.Fault{{Rank: procs - 1, At: at}})
				}

				// What was searched: everything, or the admitted batches.
				// The bank is keyed by residues, and a serving run's bank
				// is emptied batch by batch.
				searched := queries
				wantBuilds := int64(len(queries) - 1) // the twin shares
				if job.serve {
					if st.Shed == 0 || st.Admitted < 2 {
						t.Fatalf("fixture: want a partly shed stream, got %d admitted, %d shed", st.Admitted, st.Shed)
					}
					searched, wantBuilds = nil, 0
					for _, seq := range st.BatchSeq {
						distinct := make(map[string]bool)
						for _, q := range batches[seq].Queries {
							distinct[string(q.Residues)] = true
						}
						searched = append(searched, batches[seq].Queries...)
						wantBuilds += int64(len(distinct))
					}
				}
				steps := int64(job.frags * len(searched))
				wantWords := int64(job.frags) * indexWords(t, searched)

				builds, reuses := totals["blast.index_builds"], totals["blast.index_reuses"]
				if builds != wantBuilds {
					t.Errorf("index_builds = %d, want %d (distinct queries searched)", builds, wantBuilds)
				}
				if crash {
					wantWords = job.crashIndexWords[ei]
					if builds+reuses <= steps {
						t.Errorf("%d index lookups, want more than the fault-free %d: the dead worker's fragments are searched again", builds+reuses, steps)
					}
				} else if reuses != steps-builds {
					t.Errorf("index_reuses = %d, want %d (%d steps − %d builds)", reuses, steps-builds, steps, builds)
				}
				if got := totals["blast.index_words"]; got != wantWords {
					t.Errorf("virtual blast.index_words = %d, want %d: every (rank, fragment, query) step is charged a build", got, wantWords)
				}
				if oracle := sequentialOracle(t, seqs, searched); !bytes.Equal(out, oracle) {
					t.Errorf("output differs from the sequential oracle (%d vs %d bytes)", len(out), len(oracle))
				}
			})
		}
	}
}

// indexWords sums the index-build work of the queries: what one search of
// each costs in neighbourhood words before any subject is scanned.
func indexWords(t *testing.T, queries []*parblast.Sequence) int64 {
	t.Helper()
	s, err := blast.NewSearcher(blast.DefaultProteinOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := s.NewContext()
	var total int64
	for _, q := range queries {
		if err := ctx.SetQuery(q); err != nil {
			t.Fatal(err)
		}
		res, err := ctx.SearchFragment(&blast.Fragment{}, stats.SearchSpace{})
		if err != nil {
			t.Fatal(err)
		}
		total += res.Work.IndexWords
	}
	return total
}

func sequentialOracle(t *testing.T, seqs, queries []*parblast.Sequence) []byte {
	t.Helper()
	cluster, err := parblast.NewCluster(1, parblast.PlatformAltix)
	if err != nil {
		t.Fatal(err)
	}
	db, err := cluster.FormatDB("nr", seqs, "nr")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Run(parblast.EngineSequential, parblast.Search{DB: db, Queries: queries, Output: "out"}); err != nil {
		t.Fatal(err)
	}
	out, err := cluster.ReadOutput("out")
	if err != nil {
		t.Fatal(err)
	}
	return out
}
