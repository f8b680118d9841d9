// Command parblast runs a parallel BLAST search on the simulated cluster:
// it loads a FASTA database and query set from the real filesystem, formats
// the database, executes the chosen engine, writes the report, and prints
// the virtual-time phase breakdown.
//
// Usage:
//
//	parblast (-db nr.fasta | -dbdir DIR [-dbname NAME]) -query queries.fasta \
//	         [-engine pio|mpi|seq] [-procs N] [-out results.txt] [flags]
//
// Run parblast -help for every flag: the engines' options, fault injection,
// serving, and the reports and traces a run can write.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"parblast"
	"parblast/internal/fasta"
	runreport "parblast/internal/report"
)

func main() {
	dbPath := flag.String("db", "", "database FASTA file")
	dbDir := flag.String("dbdir", "", "directory of formatted database files (from cmd/formatdb); use with -dbname")
	dbName := flag.String("dbname", "db", "database base name inside -dbdir")
	queryPath := flag.String("query", "", "query FASTA file")
	outPath := flag.String("out", "results.txt", "output report path")
	engineName := flag.String("engine", "pio", "engine: pio, mpi, or seq")
	procs := flag.Int("procs", 8, "number of simulated MPI processes")
	platformName := flag.String("platform", "altix", "cluster platform: altix, blade, ideal, or san")
	fragments := flag.Int("fragments", 0, "partition granularity (0 = one fragment per worker)")
	earlyPrune := flag.Bool("early-prune", false, "pioBLAST: early score communication (§5)")
	independent := flag.Bool("independent-output", false, "pioBLAST: independent instead of collective writes (ablation)")
	title := flag.String("title", "database", "database title for report headers (with -db)")
	outfmt := flag.String("outfmt", "pairwise", "report format: pairwise or tabular")
	filter := flag.Bool("filter", false, "mask low-complexity query regions for seeding (-F)")
	dynamic := flag.Bool("dynamic", false, "pioBLAST: greedy run-time fragment assignment (§5)")
	collectiveRead := flag.Bool("collective-read", false, "pioBLAST: two-phase collective input reads (§3; static assignment only: rejected with -dynamic)")
	prefetch := flag.Int("prefetch", 0, "pioBLAST: partitions to prefetch asynchronously while searching (0 = synchronous reads; at most 1 with -dynamic, which assigns one partition per request)")
	batch := flag.Int("batch", 0, "pioBLAST: queries per collective write (§5 query batching)")
	treeMerge := flag.Bool("tree-merge", false, "hierarchical tree merge of result metadata (both engines): group pre-merges on worker clocks, one bundle per subtree to the master")
	mergeFanout := flag.Int("merge-fanout", 0, "tree-merge fan-out (children per node, ≥2; 0 = default 4)")
	memBudget := flag.Int64("membudget", 0, "pioBLAST: adaptive batching memory budget in bytes (§5); not together with -batch N>1")
	searchThreads := flag.Int("search-threads", 0, "job-wide kernel slots: how many subjects search at once across all ranks (0 = GOMAXPROCS, 1 = one at a time, negative is rejected); output is identical for every value")
	timeline := flag.Bool("timeline", false, "print a per-rank phase timeline after the run")
	ioStrategy := flag.String("io-strategy", "", "pioBLAST: collective-read strategy: two-phase, list-io, or independent (default two-phase); needs -collective-read")
	ioHints := flag.String("io-hints", "", "pioBLAST: load a learned-hints artifact (from -io-tune) and exploit it; needs -collective-read")
	ioTune := flag.String("io-tune", "", "pioBLAST: run with the I/O auto-tuner and write the learned-hints artifact to this path; needs -collective-read")
	crash := flag.String("crash", "", "inject a worker crash as RANK@TIME (e.g. 3@0.2); arms failure recovery")
	serve := flag.Bool("serve", false, "streaming mode: keep the cluster warm and admit queries as an open-loop arrival stream (output byte-identical to a one-shot run over the admitted queries)")
	arrivalRate := flag.Float64("arrival-rate", 1, "with -serve: mean batch arrivals per virtual second")
	arrivalBurst := flag.Float64("arrival-burst", 0, "with -serve: MMPP burst factor (>1 alternates calm and bursty phases; 0 or 1 = plain Poisson)")
	admitCap := flag.Int("admit-cap", 0, "with -serve: admission queue bound; batches arriving beyond it are deterministically shed (0 = unbounded)")
	arrivalBatch := flag.Int("arrival-batch", 1, "with -serve: mean queries per arrival batch")
	arrivalDist := flag.String("arrival-dist", "", "with -serve: batch-size distribution: fixed, uniform, or geometric (default fixed)")
	arrivalSeed := flag.Int64("arrival-seed", 1, "with -serve: arrival-stream RNG seed")
	reportPath := flag.String("report", "", "write a machine-readable JSON run report (carries the exact critical path) to this path")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file (Perfetto-loadable, with message-flow arrows) to this path")
	flag.Parse()

	if (*dbPath == "" && *dbDir == "") || *queryPath == "" {
		fmt.Fprintln(os.Stderr, "parblast: -db (or -dbdir) and -query are required")
		flag.Usage()
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "parblast:", err)
		os.Exit(1)
	}

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := ignoredFlag(set, *serve); err != nil {
		fail(err)
	}
	spec := parblast.RunSpec{Procs: *procs, Serve: *serve, AdmitCap: *admitCap}
	var err error
	if spec.Engine, err = parblast.ParseEngine(*engineName); err != nil {
		fail(err)
	}
	if spec.Platform, err = parblast.ParsePlatform(*platformName); err != nil {
		fail(err)
	}
	queries, err := fasta.ReadFile(*queryPath, nil)
	if err != nil {
		fail(err)
	}
	if len(queries) == 0 {
		fail(fmt.Errorf("empty query set"))
	}
	strategy, err := parblast.ParseIOStrategy(*ioStrategy)
	if err != nil {
		fail(err)
	}
	// -io-hints loads a learned artifact to exploit; -io-tune attaches a
	// (possibly pre-seeded) tuner and persists what it learned after the
	// run. Both may be given: known keys exploit, new keys explore.
	var tuner *parblast.IOTuner
	if *ioHints != "" {
		data, err := os.ReadFile(*ioHints)
		if err != nil {
			fail(err)
		}
		if tuner, err = parblast.LoadIOTuner(data); err != nil {
			fail(err)
		}
	} else if *ioTune != "" {
		tuner = parblast.NewIOTuner()
	}
	spec.Search = parblast.Search{
		Queries:   queries,
		Output:    "results.out",
		Fragments: *fragments,
		Pio: parblast.PioOptions{
			EarlyPrune:        *earlyPrune,
			IndependentOutput: *independent,
			DynamicAssignment: *dynamic,
			CollectiveRead:    *collectiveRead,
			PrefetchDepth:     *prefetch,
			QueryBatch:        *batch,
			MemoryBudgetBytes: *memBudget,
			IOHints:           parblast.IOHints{ReadStrategy: strategy},
			IOTuner:           tuner,
		},
	}
	// The tree merge is both engines' option: set it in the block the chosen
	// engine reads. The engine rejects, by name, what it would not read.
	if spec.Engine == parblast.EngineMPIBlast {
		spec.Search.Mpi.TreeMerge, spec.Search.Mpi.MergeFanout = *treeMerge, *mergeFanout
	} else {
		spec.Search.Pio.TreeMerge, spec.Search.Pio.MergeFanout = *treeMerge, *mergeFanout
	}
	if *crash != "" {
		rank, at, err := parseCrash(*crash)
		if err != nil {
			fail(err)
		}
		spec.Search.Faults = []parblast.Fault{{Rank: rank, At: at}}
	}
	if *serve {
		spec.Batches, err = parblast.Arrivals(queries, parblast.ArrivalConfig{
			Rate:      *arrivalRate,
			Burst:     *arrivalBurst,
			BatchMean: *arrivalBatch,
			BatchDist: *arrivalDist,
			Seed:      *arrivalSeed,
		})
		if err != nil {
			fail(err)
		}
	}

	// Telemetry attaches before the database is formatted, so the vfs
	// series include the format's accesses.
	var collector *parblast.TraceCollector
	var registry *parblast.MetricsRegistry
	cluster, spec, err := parblast.Stage(spec, parblast.DefaultCostModel(), func(c *parblast.Cluster) (*parblast.DB, error) {
		if *timeline || *traceOut != "" || *reportPath != "" {
			collector = c.Trace()
		}
		if *reportPath != "" {
			registry = c.Metrics()
		}
		if *dbDir == "" {
			dbSeqs, err := fasta.ReadFile(*dbPath, nil)
			if err != nil {
				return nil, err
			}
			if len(dbSeqs) == 0 {
				return nil, fmt.Errorf("empty database")
			}
			return c.FormatDB("db", dbSeqs, *title)
		}
		// Import a pre-formatted database (cmd/formatdb output) onto the
		// cluster's shared file system — no re-formatting.
		entries, err := os.ReadDir(*dbDir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			data, err := os.ReadFile(filepath.Join(*dbDir, e.Name()))
			if err != nil {
				return nil, err
			}
			c.SharedFS().WriteFile(e.Name(), data)
		}
		return c.OpenDB(*dbName)
	})
	if err != nil {
		fail(err)
	}
	db := spec.Search.DB
	if db.Kind == parblast.DNA {
		spec.Search.Options = parblast.DefaultDNAOptions()
	} else {
		spec.Search.Options = parblast.DefaultProteinOptions()
	}
	spec.Search.Options.FilterLowComplexity = *filter
	spec.Search.Options.SearchThreads = *searchThreads
	switch *outfmt {
	case "pairwise":
	case "tabular":
		spec.Search.Options.OutFormat = parblast.FormatTabular
	default:
		fail(fmt.Errorf("unknown output format %q", *outfmt))
	}
	res, serveStats, report, err := cluster.Exec(spec)
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(*outPath, report, 0o644); err != nil {
		fail(err)
	}

	fmt.Printf("engine=%s platform=%s procs=%d queries=%d db=%d seqs/%d residues\n",
		spec.Engine, spec.Platform, *procs, len(queries), db.NumSeqs, db.TotalResidues)
	if spec.Engine != parblast.EngineSequential {
		b := res.Phase
		fmt.Printf("virtual time:  copy=%.2fs input=%.2fs search=%.2fs output=%.2fs other=%.2fs\n",
			b.Copy, b.Input, b.Search, b.Output, b.Other)
		fmt.Printf("total=%.2fs  search share=%.1f%%\n", res.Wall, res.SearchFraction()*100)
		if *serve {
			fmt.Printf("serving:       arrivals=%d admitted=%d shed=%d (rate=%g/s burst=%g cap=%d)\n",
				serveStats.Arrivals, serveStats.Admitted, serveStats.Shed,
				*arrivalRate, *arrivalBurst, *admitCap)
		}
		if ls := runreport.LatencySummaryOf(res.QueryLatencies); ls != nil {
			fmt.Printf("query latency: n=%d p50=%.3fs p95=%.3fs p99=%.3fs max=%.3fs\n",
				ls.Count, ls.P50, ls.P95, ls.P99, ls.Max)
		}
	}
	fmt.Printf("report: %d bytes → %s\n", len(report), *outPath)
	if *ioTune != "" {
		artifact := tuner.Finalize()
		data, err := artifact.Encode()
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*ioTune, data, 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("learned I/O hints: %d keys → %s\n", len(artifact.Entries), *ioTune)
	}
	if *reportPath != "" {
		info := runreport.RunInfo{
			Engine:     spec.Engine.String(),
			Platform:   spec.Platform.String(),
			Procs:      *procs,
			Queries:    len(queries),
			DBSeqs:     db.NumSeqs,
			DBResidues: db.TotalResidues,
		}
		if *serve {
			info.Extra = map[string]string{
				"serve":        "true",
				"arrival_rate": fmt.Sprintf("%g", *arrivalRate),
				"arrivals":     fmt.Sprintf("%d", serveStats.Arrivals),
				"admitted":     fmt.Sprintf("%d", serveStats.Admitted),
				"shed":         fmt.Sprintf("%d", serveStats.Shed),
			}
		}
		doc := runreport.Build(info, res, registry)
		doc.ExactPath = runreport.ExactCriticalPath(collector)
		f, err := os.Create(*reportPath)
		if err != nil {
			fail(err)
		}
		if err := doc.WriteJSON(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("run report → %s\n", *reportPath)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		meta := map[string]string{
			"engine":   spec.Engine.String(),
			"platform": spec.Platform.String(),
			"procs":    fmt.Sprintf("%d", *procs),
		}
		// With a metrics registry attached, export histogram/distribution
		// series as Perfetto counter tracks alongside the rank timelines.
		var werr error
		if registry != nil {
			werr = collector.WriteChromeTraceMetrics(f, meta, registry.Snapshot())
		} else {
			werr = collector.WriteChromeTrace(f, meta)
		}
		if werr != nil {
			fail(werr)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("chrome trace → %s (load at ui.perfetto.dev)\n", *traceOut)
	}
	if collector != nil && *timeline {
		fmt.Println()
		collector.Render(os.Stdout, 100)
	}
}

// serveOnlyFlags shape the arrival stream, which only -serve builds. Setting
// one without it is an error, not a no-op: the run would otherwise report
// success for an option it dropped. What an engine would not read it rejects
// itself, by name.
var serveOnlyFlags = []string{"arrival-rate", "arrival-burst", "arrival-batch", "arrival-dist",
	"arrival-seed", "admit-cap"}

// dbFlags pairs a flag with the one it needs (needs) or excludes: -db and
// -title format a FASTA file, which -dbdir replaces with a formatted
// database, and -dbname names the database inside -dbdir.
var dbFlags = []struct {
	flag, other string
	needs       bool
}{{"db", "dbdir", false}, {"title", "dbdir", false}, {"dbname", "dbdir", true}}

// ignoredFlag names the first flag the user set (set is flag.Visit's set)
// that the run would not read: an arrival flag without -serve, or a
// database flag beside the wrong source.
func ignoredFlag(set map[string]bool, serve bool) error {
	for _, f := range serveOnlyFlags {
		if set[f] && !serve {
			return fmt.Errorf("-%s is a serving-mode option: it needs -serve", f)
		}
	}
	for _, r := range dbFlags {
		if set[r.flag] && set[r.other] != r.needs {
			if r.needs {
				return fmt.Errorf("-%s is read only with -%s: it needs -%s", r.flag, r.other, r.other)
			}
			return fmt.Errorf("-%s is not read with -%s: set one of them", r.flag, r.other)
		}
	}
	return nil
}

// parseCrash reads -crash's RANK@TIME and accepts nothing after the time.
// Whether the pair is a legal fault (a worker rank, a finite time) is the
// engine's call.
func parseCrash(s string) (rank int, at float64, err error) {
	rankText, atText, ok := strings.Cut(s, "@")
	if !ok {
		err = errors.New("no @")
	} else if rank, err = strconv.Atoi(rankText); err == nil {
		at, err = strconv.ParseFloat(atText, 64)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("bad -crash %q (want RANK@TIME, e.g. 3@0.2): %w", s, err)
	}
	return rank, at, nil
}
