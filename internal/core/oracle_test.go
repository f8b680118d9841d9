package core_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"parblast/internal/blast"
	"parblast/internal/core"
	"parblast/internal/engine"
	"parblast/internal/mpi"
	"parblast/internal/mpiblast"
	"parblast/internal/mpiio"
	"parblast/internal/vfs"
	"parblast/internal/workload"
)

// The oracle tables: every engine run whose report must be the sequential
// search's, byte for byte, one table per fixture. Each row is named after its
// test, then its case; the test runs the rows named after it against its
// fixture's oracle, which the first of them builds.

// oracleRow is one engine run of an oracle table.
type oracleRow struct {
	name string
	// The engine: mpiBLAST with these options, or pioBLAST with these.
	mpi *mpiblast.Options
	pio *core.Options

	procs, fragments int
	shared           vfs.Profile // XFSLike when unnamed
	local            *vfs.Profile
	ioFaults         *vfs.FaultPlan // transient faults on the shared store
	// rate, when set, serves the queries as a stream arriving at this rate.
	rate float64
	// crash, when set, reruns the row twice with its last worker crashing
	// halfway through the search: each recovers the oracle's bytes at a
	// wall above the fault-free one, and the two agree exactly.
	crash bool
	check func(t *testing.T, res engine.RunResult, out []byte)
}

// bothEngines returns row on mpiBLAST and on pioBLAST, both with default
// options, as rows name/mpi and name/pio.
func bothEngines(name string, row oracleRow) []oracleRow {
	m, p := row, row
	m.name, m.mpi = name+"/mpi", &mpiblast.Options{}
	p.name, p.pio = name+"/pio", &core.Options{}
	return []oracleRow{m, p}
}

// readPath names the read-path options o sets.
func readPath(o core.Options) string {
	var set []string
	if o.DynamicAssignment {
		set = append(set, "dynamic")
	}
	if o.CollectiveRead {
		set = append(set, "collective")
	}
	if o.PrefetchDepth > 0 {
		set = append(set, fmt.Sprintf("prefetch=%d", o.PrefetchDepth))
	}
	if set == nil {
		return "plain"
	}
	return strings.Join(set, "+")
}

// run runs the row on a fresh cluster under faults.
func (row oracleRow) run(t *testing.T, fx *fixture, faults []mpi.Fault) (engine.RunResult, []byte) {
	t.Helper()
	shared := row.shared
	if shared.Name == "" {
		shared = vfs.XFSLike()
	}
	nodes := fx.newCluster(t, row.procs, shared, row.local, fx.volMax)
	if row.ioFaults != nil {
		if err := nodes[0].Shared.InjectFaults(*row.ioFaults); err != nil {
			t.Fatal(err)
		}
	}
	job := *fx.job
	job.Fragments = row.fragments
	cfg := mpi.Config{Cost: testCost(), Faults: faults}
	var stream *engine.Stream
	if row.rate > 0 {
		stream = &engine.Stream{Batches: serveArrivals(t, fx, workload.ArrivalConfig{
			Rate: row.rate, BatchMean: 2, BatchDist: workload.BatchUniform, Seed: 7,
		})}
	}
	var res engine.RunResult
	var stats engine.ServeStats
	var err error
	if row.mpi != nil {
		if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", engine.PartCount(row.fragments, row.procs)); err != nil {
			t.Fatal(err)
		}
		res, stats, err = mpiblast.Run(nodes, row.procs, cfg, &job, *row.mpi, stream)
	} else {
		res, stats, err = core.Run(nodes, row.procs, cfg, &job, *row.pio, stream)
	}
	if err != nil {
		t.Fatalf("faults %v: %v", faults, err)
	}
	if stream != nil {
		if stats.Shed != 0 || stats.Admitted != len(stream.Batches) || stats.Arrivals != stats.Admitted+stats.Shed {
			t.Errorf("unbounded queue accounting wrong: %+v", stats)
		}
		if len(res.QueryLatencies) != len(fx.queries) {
			t.Errorf("%d streamed latencies for %d queries", len(res.QueryLatencies), len(fx.queries))
		}
		for i, lat := range res.QueryLatencies {
			if lat <= 0 {
				t.Fatalf("query %d latency %g not positive", i, lat)
			}
		}
	}
	out, err := nodes[0].Shared.ReadFile(job.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	return res, out
}

// oracleFixture is one fixture's table: the fixture of queryBytes, which
// edit changes first, and the rows run against its sequential report.
type oracleFixture struct {
	queryBytes int
	edit       func(*testing.T, *fixture)
	// rows builds the table afresh for each test: a row's options may
	// carry state, as the tuner's do.
	rows func() []oracleRow

	fx     *fixture
	oracle []byte
}

// run runs the rows named after t's test: a row named as the test in t, a
// row named test/case in the subtest case.
func (f *oracleFixture) run(t *testing.T) {
	t.Helper()
	if f.fx == nil {
		f.fx = makeFixture(t, f.queryBytes)
		if f.edit != nil {
			f.edit(t, f.fx)
		}
		if f.oracle = oracleOutput(t, f.fx); len(f.oracle) == 0 {
			t.Fatal("sequential output empty")
		}
	}
	ran := false
	for _, row := range f.rows() {
		test, sub, _ := strings.Cut(row.name, "/")
		if test != t.Name() {
			continue
		}
		ran = true
		if sub == "" {
			f.check(t, row)
		} else {
			t.Run(sub, func(t *testing.T) { f.check(t, row) })
		}
	}
	if !ran {
		t.Fatal("no row is named after this test")
	}
}

// check runs row and compares its report with the oracle.
func (f *oracleFixture) check(t *testing.T, row oracleRow) {
	t.Helper()
	same := func(what string, out []byte) {
		t.Helper()
		if !bytes.Equal(out, f.oracle) {
			t.Fatalf("%s differs from the sequential oracle at byte %d (%d vs %d bytes)",
				what, firstDiff(out, f.oracle), len(out), len(f.oracle))
		}
	}
	free, out := row.run(t, f.fx, nil)
	same("output", out)
	if row.check != nil {
		row.check(t, free, out)
	}
	if !row.crash {
		return
	}
	faults := []mpi.Fault{{Rank: row.procs - 1, At: 0.5 * (free.Wall - free.Phase.Output)}}
	crashed, out1 := row.run(t, f.fx, faults)
	same("output after a crash", out1)
	if crashed.Wall <= free.Wall {
		t.Errorf("crashed wall %.3f not above fault-free %.3f (no recovery cost?)", crashed.Wall, free.Wall)
	}
	again, out2 := row.run(t, f.fx, faults)
	if !bytes.Equal(out1, out2) || again.Wall != crashed.Wall {
		t.Errorf("recovery nondeterministic (wall %.6f vs %.6f)", crashed.Wall, again.Wall)
	}
}

var oracle300 = &oracleFixture{queryBytes: 300, rows: func() []oracleRow {
	var rows []oracleRow
	pio := func(name string, procs, fragments int, opts core.Options) {
		rows = append(rows, oracleRow{name: name, pio: &opts, procs: procs, fragments: fragments})
	}
	for _, n := range []int{2, 3, 6} {
		rows = append(rows, bothEngines(fmt.Sprintf("TestEquivalenceAcrossProcessCounts/procs=%d", n),
			oracleRow{procs: n, local: localDisk()})...)
	}
	rows = append(rows, bothEngines("TestEquivalenceAcrossFragmentCounts",
		oracleRow{procs: 4, fragments: 9, local: localDisk()})...)
	// The Altix case: no node-local storage, so the baseline copies its
	// fragments to shared scratch instead.
	diskless := bothEngines("TestNoLocalDiskUsesSharedScratch", oracleRow{procs: 4})
	diskless[0].check = func(t *testing.T, res engine.RunResult, _ []byte) {
		if res.Phase.Copy <= 0 {
			t.Fatal("baseline should still pay a copy phase on shared scratch")
		}
	}
	rows = append(rows, diskless...)
	pio("TestEarlyPrunePreservesOutput", 5, 0, core.Options{EarlyPrune: true})
	pio("TestIndependentOutputPreservesBytes", 4, 0, core.Options{IndependentOutput: true})
	pio("TestDynamicAssignmentPreservesOutput", 5, 12, core.Options{DynamicAssignment: true})
	for _, batch := range []int{2, 3, 100} {
		pio(fmt.Sprintf("TestQueryBatchingPreservesOutput/batch=%d", batch), 4, 0, core.Options{QueryBatch: batch})
	}
	pio("TestCombinedOptionsPreserveOutput", 5, 15, core.Options{DynamicAssignment: true, EarlyPrune: true, QueryBatch: 4})
	for _, prof := range []vfs.Profile{vfs.XFSLike(), vfs.NFSLike()} {
		rows = append(rows, oracleRow{name: "TestCollectiveReadPreservesOutput/" + prof.Name,
			pio: &core.Options{CollectiveRead: true}, procs: 4, fragments: 9, shared: prof})
	}
	for _, depth := range []int{1, 2, 4} {
		pio(fmt.Sprintf("TestPrefetchPreservesOutput/depth=%d", depth), 4, 9, core.Options{PrefetchDepth: depth})
	}
	// Every legal combination of collective reads, prefetch and dynamic
	// assignment (under which the prefetch pipelines the greedy protocol
	// one deep), with more partitions than workers and with fewer: at 2
	// partitions on 4 workers a static worker has an empty share and a
	// greedy worker's first answer is "none".
	for _, fragments := range []int{12, 2} {
		for _, dynamic := range []bool{false, true} {
			for _, collective := range []bool{false, true} {
				for _, depth := range []int{0, 1, 2} {
					if dynamic && (collective || depth > 1) {
						continue // rejected by the plan (TestOptionPlan)
					}
					opts := core.Options{DynamicAssignment: dynamic, CollectiveRead: collective, PrefetchDepth: depth}
					pio(fmt.Sprintf("TestReadPathCombosPreserveOutput/fragments=%d/%s", fragments, readPath(opts)), 5, fragments, opts)
				}
			}
		}
	}
	// Deterministic transient storage errors (failed attempts and backoff)
	// delay reads but never change the bytes, in any read-path mode.
	for _, opts := range []core.Options{
		{CollectiveRead: true},
		{PrefetchDepth: 2},
		{DynamicAssignment: true, PrefetchDepth: 1},
	} {
		rows = append(rows, oracleRow{name: "TestReadPathSurvivesTransientIOFaults/" + readPath(opts),
			pio: &opts, procs: 4, fragments: 9, shared: vfs.NFSLike(),
			ioFaults: &vfs.FaultPlan{FirstOp: 2, Every: 3, Failures: 2, Backoff: 1e-3}})
	}
	return rows
}}

func TestEquivalenceAcrossProcessCounts(t *testing.T)    { oracle300.run(t) }
func TestEquivalenceAcrossFragmentCounts(t *testing.T)   { oracle300.run(t) }
func TestNoLocalDiskUsesSharedScratch(t *testing.T)      { oracle300.run(t) }
func TestEarlyPrunePreservesOutput(t *testing.T)         { oracle300.run(t) }
func TestIndependentOutputPreservesBytes(t *testing.T)   { oracle300.run(t) }
func TestDynamicAssignmentPreservesOutput(t *testing.T)  { oracle300.run(t) }
func TestQueryBatchingPreservesOutput(t *testing.T)      { oracle300.run(t) }
func TestCombinedOptionsPreserveOutput(t *testing.T)     { oracle300.run(t) }
func TestCollectiveReadPreservesOutput(t *testing.T)     { oracle300.run(t) }
func TestPrefetchPreservesOutput(t *testing.T)           { oracle300.run(t) }
func TestReadPathCombosPreserveOutput(t *testing.T)      { oracle300.run(t) }
func TestReadPathSurvivesTransientIOFaults(t *testing.T) { oracle300.run(t) }

// A database in four volumes: every read path must read partitions that
// cross volume boundaries correctly.
var oracle300Volumes = &oracleFixture{queryBytes: 300,
	edit: func(t *testing.T, fx *fixture) { fx.volMax = workload.TotalResidues(fixtureDB(t)) / 4 },
	rows: func() []oracleRow {
		var rows []oracleRow
		for _, opts := range []core.Options{
			{},
			{PrefetchDepth: 2},
			{DynamicAssignment: true},
			{DynamicAssignment: true, PrefetchDepth: 1},
			{CollectiveRead: true},
		} {
			for _, fragments := range []int{0, 3, 7} {
				rows = append(rows, oracleRow{name: fmt.Sprintf("TestMultiVolumeDatabase/%s/fragments=%d", readPath(opts), fragments),
					pio: &opts, procs: 4, fragments: fragments})
			}
		}
		return rows
	}}

func TestMultiVolumeDatabase(t *testing.T) { oracle300Volumes.run(t) }

var oracle300Tabular = &oracleFixture{queryBytes: 300,
	edit: func(_ *testing.T, fx *fixture) { fx.job.Options.OutFormat = blast.FormatTabular },
	rows: func() []oracleRow {
		rows := bothEngines("TestTabularOutputAcrossEngines", oracleRow{procs: 4})
		for i := range rows {
			rows[i].check = func(t *testing.T, _ engine.RunResult, out []byte) {
				text := string(out)
				if !strings.Contains(text, "# Fields: query id") {
					t.Fatalf("tabular header missing:\n%.200s", text)
				}
				for _, line := range strings.Split(text, "\n") {
					if line == "" || strings.HasPrefix(line, "#") {
						continue
					}
					if got := strings.Count(line, "\t"); got != 11 {
						t.Fatalf("data line has %d tabs: %q", got, line)
					}
				}
			}
		}
		return rows
	}}

func TestTabularOutputAcrossEngines(t *testing.T) { oracle300Tabular.run(t) }

var oracle300Filtered = &oracleFixture{queryBytes: 300,
	edit: func(_ *testing.T, fx *fixture) { fx.job.Options.FilterLowComplexity = true },
	rows: func() []oracleRow { return bothEngines("TestFilteredSearchAcrossEngines", oracleRow{procs: 4}) }}

func TestFilteredSearchAcrossEngines(t *testing.T) { oracle300Filtered.run(t) }

var oracle400 = &oracleFixture{queryBytes: 400, rows: func() []oracleRow {
	rows := bothEngines("TestEnginesProduceIdenticalOutput", oracleRow{procs: 4, local: localDisk()})
	rows[0].check = func(t *testing.T, _ engine.RunResult, out []byte) {
		if !strings.Contains(string(out), "Sequences producing significant alignments") {
			t.Fatal("output has no hit summaries — workload produced no hits")
		}
	}
	// Every read strategy, and the tuner, which mixes them mid-run while
	// exploring, through the whole pipeline with collective reads on.
	for _, tc := range []struct {
		name  string
		hints mpiio.Hints
		tuner *mpiio.Tuner
	}{
		{"", mpiio.Hints{}, nil},
		{"/two-phase", mpiio.Hints{ReadStrategy: mpiio.StrategyTwoPhase}, nil},
		{"/list-io", mpiio.Hints{ReadStrategy: mpiio.StrategyListIO}, nil},
		{"/independent", mpiio.Hints{ReadStrategy: mpiio.StrategyIndependent}, nil},
		{"/explicit gap", mpiio.Hints{SieveGap: 4096, CbNodes: 2}, nil},
		{"/tuner", mpiio.Hints{}, mpiio.NewTuner()},
	} {
		rows = append(rows, oracleRow{name: "TestIOStrategiesPreserveOutput" + tc.name,
			pio: &core.Options{CollectiveRead: true, IOHints: tc.hints, IOTuner: tc.tuner}, procs: 4, local: localDisk()})
	}
	return rows
}}

func TestEnginesProduceIdenticalOutput(t *testing.T) { oracle400.run(t) }
func TestIOStrategiesPreserveOutput(t *testing.T)    { oracle400.run(t) }

var oracle500 = &oracleFixture{queryBytes: 500, rows: func() []oracleRow {
	var rows []oracleRow
	for _, budget := range []int64{1, 4096, 1 << 20} {
		rows = append(rows, oracleRow{name: fmt.Sprintf("TestAdaptiveBatchingPreservesOutput/budget=%d", budget),
			pio: &core.Options{MemoryBudgetBytes: budget}, procs: 5})
	}
	return rows
}}

func TestAdaptiveBatchingPreservesOutput(t *testing.T) { oracle500.run(t) }

// The hierarchical merge at every fan-out, alone and combined with the
// collective-read and prefetch input paths.
var oracle1200 = &oracleFixture{queryBytes: 1200, rows: func() []oracleRow {
	var rows []oracleRow
	for _, v := range []struct {
		name string
		opts core.Options
	}{
		{"plain", core.Options{}},
		{"collective-read", core.Options{CollectiveRead: true}},
		{"prefetch", core.Options{PrefetchDepth: 2}},
	} {
		for _, fanout := range []int{2, 4, 8} {
			opts := v.opts
			opts.TreeMerge, opts.MergeFanout = true, fanout
			rows = append(rows, oracleRow{name: fmt.Sprintf("TestTreeMergeByteIdentical/%s/fanout=%d", v.name, fanout),
				pio: &opts, procs: 6, local: localDisk()})
		}
	}
	return rows
}}

func TestTreeMergeByteIdentical(t *testing.T) { oracle1200.run(t) }

// A crash mid-search recovers with the tree merge on, which then runs over
// the survivors.
var oracle1600 = &oracleFixture{queryBytes: 1600, rows: func() []oracleRow {
	return []oracleRow{{name: "TestTreeMergeCrashMidSearchByteIdentical", crash: true, procs: 5, local: localDisk(),
		pio: &core.Options{TreeMerge: true, MergeFanout: 2, FaultTolerant: true}}}
}}

func TestTreeMergeCrashMidSearchByteIdentical(t *testing.T) { oracle1600.run(t) }

var oracle2000 = &oracleFixture{queryBytes: 2000, rows: func() []oracleRow {
	rows := []oracleRow{
		{name: "TestCrashRecoveryByteIdentical/mpi", crash: true, procs: 4, local: localDisk(), mpi: &mpiblast.Options{}},
		{name: "TestCrashRecoveryByteIdentical/pio", crash: true, procs: 4, local: localDisk(), pio: &core.Options{FaultTolerant: true}},
	}
	// Recovery re-reads reclaimed partitions with independent reads, since
	// the crashed peers a collective needs are gone.
	for _, opts := range []core.Options{
		{FaultTolerant: true, CollectiveRead: true},
		{FaultTolerant: true, PrefetchDepth: 2},
		{FaultTolerant: true, DynamicAssignment: true, PrefetchDepth: 1},
	} {
		rows = append(rows, oracleRow{name: "TestCrashRecoveryWithReadPathModes/" + readPath(opts),
			crash: true, pio: &opts, procs: 4, fragments: 9, local: localDisk()})
	}
	// Served at a trickle and at a saturating rate, for every read path and
	// merge protocol, each engine writes what its one-shot run writes.
	serve := func(name string, row oracleRow) {
		for _, rate := range []float64{0, 0.05, 50} {
			row.name, row.rate = fmt.Sprintf("%s/rate=%g", name, rate), rate
			if rate == 0 {
				row.name = name + "/one-shot"
			}
			rows = append(rows, row)
		}
	}
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"plain", core.Options{}},
		{"collective", core.Options{CollectiveRead: true}},
		{"prefetch", core.Options{PrefetchDepth: 2}},
		{"tree", core.Options{TreeMerge: true, CollectiveRead: true}},
	} {
		serve("TestServeMatchesOneShot/"+tc.name, oracleRow{pio: &tc.opts, procs: 4, local: localDisk()})
	}
	for _, tree := range []bool{false, true} {
		serve(fmt.Sprintf("TestServeMatchesOneShotMpiblast/tree=%v", tree),
			oracleRow{mpi: &mpiblast.Options{TreeMerge: tree}, procs: 4, local: localDisk()})
	}
	return rows
}}

func TestCrashRecoveryByteIdentical(t *testing.T)     { oracle2000.run(t) }
func TestCrashRecoveryWithReadPathModes(t *testing.T) { oracle2000.run(t) }
func TestServeMatchesOneShot(t *testing.T)            { oracle2000.run(t) }
func TestServeMatchesOneShotMpiblast(t *testing.T)    { oracle2000.run(t) }
