// Command parblast runs a parallel BLAST search on the simulated cluster:
// it loads a FASTA database and query set from the real filesystem, formats
// the database, executes the chosen engine, writes the report, and prints
// the virtual-time phase breakdown.
//
// Usage:
//
//	parblast -db nr.fasta -query queries.fasta -out results.txt \
//	         [-engine pio|mpi|seq] [-procs 32] [-platform altix|blade|ideal] \
//	         [-fragments N] [-early-prune] [-independent-output] \
//	         [-collective-read] [-prefetch N] [-dynamic] \
//	         [-serve -arrival-rate R [-arrival-burst B] [-admit-cap N]] \
//	         [-report run.json] [-trace-out trace.json] [-timeline]
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
	platformName := flag.String("platform", "altix", "cluster platform: altix, blade, or ideal")
	fragments := flag.Int("fragments", 0, "partition granularity (0 = one fragment per worker)")
	earlyPrune := flag.Bool("early-prune", false, "pioBLAST: early score communication (§5)")
	independent := flag.Bool("independent-output", false, "pioBLAST: independent instead of collective writes (ablation)")
	title := flag.String("title", "database", "database title for report headers")
	outfmt := flag.String("outfmt", "pairwise", "report format: pairwise or tabular")
	filter := flag.Bool("filter", false, "mask low-complexity query regions for seeding (-F)")
	dynamic := flag.Bool("dynamic", false, "pioBLAST: greedy run-time fragment assignment (§5)")
	collectiveRead := flag.Bool("collective-read", false, "pioBLAST: two-phase collective input reads (§3; static assignment only: rejected with -dynamic)")
	prefetch := flag.Int("prefetch", 0, "pioBLAST: partitions to prefetch asynchronously while searching (0 = synchronous reads)")
	batch := flag.Int("batch", 0, "pioBLAST: queries per collective write (§5 query batching)")
	treeMerge := flag.Bool("tree-merge", false, "hierarchical tree merge of result metadata (both engines): group pre-merges on worker clocks, one bundle per subtree to the master")
	mergeFanout := flag.Int("merge-fanout", 0, "tree-merge fan-out (children per node, ≥2; 0 = default 4)")
	memBudget := flag.Int64("membudget", 0, "pioBLAST: adaptive batching memory budget in bytes (§5); not together with -batch N>1")
	searchThreads := flag.Int("search-threads", 0, "intra-rank search worker goroutines (0 = GOMAXPROCS, 1 = sequential, negative is rejected); output is identical for every value")
	timeline := flag.Bool("timeline", false, "print a per-rank phase timeline after the run")
	ioStrategy := flag.String("io-strategy", "", "pioBLAST: collective-read strategy: two-phase, list-io, or independent (default two-phase)")
	ioHints := flag.String("io-hints", "", "pioBLAST: load a learned-hints artifact (from -io-tune) and exploit it")
	ioTune := flag.String("io-tune", "", "pioBLAST: run with the I/O auto-tuner and write the learned-hints artifact to this path")
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

	var eng parblast.Engine
	switch *engineName {
	case "pio":
		eng = parblast.EnginePioBLAST
	case "mpi":
		eng = parblast.EngineMPIBlast
	case "seq":
		eng = parblast.EngineSequential
	default:
		fail(fmt.Errorf("unknown engine %q", *engineName))
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := ignoredFlag(set, *engineName, *treeMerge, *serve); err != nil {
		fail(err)
	}
	var platform parblast.Platform
	switch *platformName {
	case "altix":
		platform = parblast.PlatformAltix
	case "blade":
		platform = parblast.PlatformBladeCluster
	case "ideal":
		platform = parblast.PlatformIdeal
	default:
		fail(fmt.Errorf("unknown platform %q", *platformName))
	}

	queries, err := fasta.ReadFile(*queryPath, nil)
	if err != nil {
		fail(err)
	}
	if len(queries) == 0 {
		fail(fmt.Errorf("empty query set"))
	}

	cluster, err := parblast.NewCluster(*procs, platform)
	if err != nil {
		fail(err)
	}
	var collector *parblast.TraceCollector
	if *timeline || *traceOut != "" || *reportPath != "" {
		collector = cluster.Trace()
	}
	var registry *parblast.MetricsRegistry
	if *reportPath != "" {
		registry = cluster.Metrics()
	}
	var db *parblast.DB
	if *dbDir != "" {
		// Import a pre-formatted database (cmd/formatdb output) onto the
		// cluster's shared file system — no re-formatting.
		entries, err := os.ReadDir(*dbDir)
		if err != nil {
			fail(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			data, err := os.ReadFile(filepath.Join(*dbDir, e.Name()))
			if err != nil {
				fail(err)
			}
			cluster.SharedFS().WriteFile(e.Name(), data)
		}
		db, err = cluster.OpenDB(*dbName)
		if err != nil {
			fail(err)
		}
	} else {
		dbSeqs, err := fasta.ReadFile(*dbPath, nil)
		if err != nil {
			fail(err)
		}
		if len(dbSeqs) == 0 {
			fail(fmt.Errorf("empty database"))
		}
		db, err = cluster.FormatDB("db", dbSeqs, *title)
		if err != nil {
			fail(err)
		}
	}
	if eng == parblast.EngineMPIBlast {
		n := *fragments
		if n == 0 {
			n = *procs - 1
		}
		if err := cluster.PrepareFragments(db.Base, n); err != nil {
			fail(err)
		}
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
	search := parblast.Search{
		DB:        db,
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
			TreeMerge:         *treeMerge,
			MergeFanout:       *mergeFanout,
			IOHints:           parblast.IOHints{ReadStrategy: strategy},
			IOTuner:           tuner,
		},
		Mpi: parblast.MpiOptions{
			TreeMerge:   *treeMerge,
			MergeFanout: *mergeFanout,
		},
	}
	if db.Kind == parblast.DNA {
		search.Options = parblast.DefaultDNAOptions()
	} else {
		search.Options = parblast.DefaultProteinOptions()
	}
	search.Options.FilterLowComplexity = *filter
	search.Options.SearchThreads = *searchThreads
	if *crash != "" {
		rank, at, err := parseCrash(*crash)
		if err != nil {
			fail(err)
		}
		search.Faults = []parblast.Fault{{Rank: rank, At: at, Kind: parblast.FaultCrash}}
	}
	switch *outfmt {
	case "pairwise":
	case "tabular":
		search.Options.OutFormat = parblast.FormatTabular
	default:
		fail(fmt.Errorf("unknown output format %q", *outfmt))
	}
	var res parblast.Result
	var serveStats parblast.ServeStats
	if *serve {
		batches, err := parblast.Arrivals(queries, parblast.ArrivalConfig{
			Rate:      *arrivalRate,
			Burst:     *arrivalBurst,
			BatchMean: *arrivalBatch,
			BatchDist: *arrivalDist,
			Seed:      *arrivalSeed,
		})
		if err != nil {
			fail(err)
		}
		res, serveStats, err = cluster.Serve(eng, search, batches, *admitCap)
		if err != nil {
			fail(err)
		}
	} else {
		var err error
		res, err = cluster.Run(eng, search)
		if err != nil {
			fail(err)
		}
	}
	report, err := cluster.ReadOutput("results.out")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(*outPath, report, 0o644); err != nil {
		fail(err)
	}

	fmt.Printf("engine=%s platform=%s procs=%d queries=%d db=%d seqs/%d residues\n",
		eng, platform, *procs, len(queries), db.NumSeqs, db.TotalResidues)
	if eng != parblast.EngineSequential {
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
			Engine:     eng.String(),
			Platform:   platform.String(),
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
			"engine":   eng.String(),
			"platform": platform.String(),
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

// Flags that only some engines or modes read. Setting one where nothing reads
// it is an error, not a no-op: the run would otherwise report success for an
// option it dropped.
var (
	pioOnlyFlags = []string{"early-prune", "independent-output", "dynamic", "collective-read",
		"prefetch", "batch", "membudget", "io-strategy", "io-hints", "io-tune"}
	parallelOnlyFlags = []string{"tree-merge", "merge-fanout", "crash", "fragments"}
	serveOnlyFlags    = []string{"arrival-rate", "arrival-burst", "arrival-batch", "arrival-dist",
		"arrival-seed", "admit-cap"}
)

// ignoredFlag names the first flag the user set (set is flag.Visit's set)
// that the chosen engine or mode would silently ignore, and why.
func ignoredFlag(set map[string]bool, engine string, treeMerge, serve bool) error {
	first := func(names []string) string {
		for _, n := range names {
			if set[n] {
				return n
			}
		}
		return ""
	}
	if engine != "pio" {
		if f := first(pioOnlyFlags); f != "" {
			return fmt.Errorf("-%s is a pioBLAST option: -engine %s would ignore it", f, engine)
		}
	}
	if engine == "seq" {
		if f := first(parallelOnlyFlags); f != "" {
			return fmt.Errorf("-%s needs a parallel engine: -engine seq is one process with nothing to partition, merge or crash", f)
		}
	}
	if set["merge-fanout"] && !treeMerge {
		return fmt.Errorf("-merge-fanout is the tree merge's fan-out: it needs -tree-merge")
	}
	if !serve {
		if f := first(serveOnlyFlags); f != "" {
			return fmt.Errorf("-%s is a serving-mode option: it needs -serve", f)
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
