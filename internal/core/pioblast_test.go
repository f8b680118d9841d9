package core_test

import (
	"bytes"
	"strings"
	"testing"

	"parblast/internal/blast"
	"parblast/internal/core"
	"parblast/internal/engine"
	"parblast/internal/formatdb"
	"parblast/internal/metrics"
	"parblast/internal/mpi"
	"parblast/internal/mpiblast"
	"parblast/internal/seq"
	"parblast/internal/simtime"
	"parblast/internal/vfs"
	"parblast/internal/workload"
)

// fixture builds a formatted database plus query set on a fresh cluster.
type fixture struct {
	job     *engine.Job
	db      *formatdb.DB
	queries []*seq.Sequence
}

// makeFixture samples queries from the same synthetic DB that newCluster
// formats (identical seed/config), so queries are guaranteed homologs.
func makeFixture(t *testing.T, queryBytes int) *fixture {
	t.Helper()
	seqs, err := workload.SynthesizeDB(workload.DBConfig{
		Kind: seq.Protein, NumSeqs: 60, MeanLen: 150, Seed: 101,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := workload.SampleQueries(seqs, workload.QueryConfig{
		TargetBytes: queryBytes, MeanLen: 100, MutationRate: 0.05, Seed: 202,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		queries: queries,
		job: &engine.Job{
			DBBase:     "nr",
			Queries:    queries,
			Options:    blast.DefaultProteinOptions(),
			OutputPath: "results.out",
		},
	}
}

// newCluster formats the fixture's DB onto a fresh cluster's shared FS.
func (fx *fixture) newCluster(t *testing.T, n int, shared vfs.Profile, local *vfs.Profile, volMax int64) []*vfs.Node {
	t.Helper()
	nodes, err := vfs.Cluster(n, shared, local)
	if err != nil {
		t.Fatal(err)
	}
	seqs, err := workload.SynthesizeDB(workload.DBConfig{
		Kind: seq.Protein, NumSeqs: 60, MeanLen: 150, Seed: 101,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := formatdb.Format(nodes[0].Shared, "nr", seqs, formatdb.Config{
		Title: "synthetic nr", Kind: seq.Protein, VolumeMaxResidues: volMax,
	})
	if err != nil {
		t.Fatal(err)
	}
	fx.db = db
	return nodes
}

func testCost() simtime.CostModel { return simtime.DefaultCostModel() }

func localDisk() *vfs.Profile {
	p := vfs.LocalDisk()
	return &p
}

// runAllThree executes the sequential oracle, the baseline, and pioBLAST on
// identical inputs and returns the three output files.
func runAllThree(t *testing.T, fx *fixture, nprocs, fragments int, shared vfs.Profile, local *vfs.Profile, opts core.Options) (seqOut, mpiOut, pioOut []byte, mpiRes, pioRes engine.RunResult) {
	t.Helper()

	// Sequential oracle.
	seqNodes := fx.newCluster(t, 1, vfs.RAMDisk(), nil, 0)
	seqJob := *fx.job
	if err := engine.RunSequential(seqNodes[0].Shared, &seqJob); err != nil {
		t.Fatal(err)
	}
	seqOut, err := seqNodes[0].Shared.ReadFile(fx.job.OutputPath)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline.
	mpiNodes := fx.newCluster(t, nprocs, shared, local, 0)
	nFrags := fragments
	if nFrags == 0 {
		nFrags = nprocs - 1
	}
	if _, err := mpiblast.PrepareFragments(mpiNodes[0].Shared, "nr", nFrags); err != nil {
		t.Fatal(err)
	}
	mpiJob := *fx.job
	mpiJob.Fragments = fragments
	mpiRes, err = mpiblast.Run(mpiNodes, nprocs, testCost(), &mpiJob)
	if err != nil {
		t.Fatal(err)
	}
	mpiOut, err = mpiNodes[0].Shared.ReadFile(fx.job.OutputPath)
	if err != nil {
		t.Fatal(err)
	}

	// pioBLAST.
	pioNodes := fx.newCluster(t, nprocs, shared, local, 0)
	pioJob := *fx.job
	pioJob.Fragments = fragments
	pioRes, err = core.Run(pioNodes, nprocs, testCost(), &pioJob, opts)
	if err != nil {
		t.Fatal(err)
	}
	pioOut, err = pioNodes[0].Shared.ReadFile(fx.job.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	return seqOut, mpiOut, pioOut, mpiRes, pioRes
}

func TestEnginesProduceIdenticalOutput(t *testing.T) {
	fx := makeFixture(t, 400)
	seqOut, mpiOut, pioOut, _, _ := runAllThree(t, fx, 4, 0, vfs.XFSLike(), localDisk(), core.Options{})
	if len(seqOut) == 0 {
		t.Fatal("sequential output empty")
	}
	if !bytes.Equal(seqOut, mpiOut) {
		t.Fatalf("mpiBLAST output differs from sequential (len %d vs %d)\nfirst divergence: %d",
			len(mpiOut), len(seqOut), firstDiff(seqOut, mpiOut))
	}
	if !bytes.Equal(seqOut, pioOut) {
		t.Fatalf("pioBLAST output differs from sequential (len %d vs %d)\nfirst divergence: %d",
			len(pioOut), len(seqOut), firstDiff(seqOut, pioOut))
	}
	if !strings.Contains(string(seqOut), "Sequences producing significant alignments") {
		t.Fatal("output has no hit summaries — workload produced no hits")
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func TestEquivalenceAcrossProcessCounts(t *testing.T) {
	fx := makeFixture(t, 300)
	var ref []byte
	for _, n := range []int{2, 3, 6} {
		seqOut, mpiOut, pioOut, _, _ := runAllThree(t, fx, n, 0, vfs.XFSLike(), localDisk(), core.Options{})
		if ref == nil {
			ref = seqOut
		}
		if !bytes.Equal(ref, mpiOut) || !bytes.Equal(ref, pioOut) {
			t.Fatalf("n=%d: outputs differ from reference", n)
		}
	}
}

func TestEquivalenceAcrossFragmentCounts(t *testing.T) {
	fx := makeFixture(t, 300)
	seqOut, mpiOut, pioOut, _, _ := runAllThree(t, fx, 4, 9, vfs.XFSLike(), localDisk(), core.Options{})
	if !bytes.Equal(seqOut, mpiOut) {
		t.Fatal("mpiBLAST with 9 fragments differs")
	}
	if !bytes.Equal(seqOut, pioOut) {
		t.Fatal("pioBLAST with 9 virtual fragments differs")
	}
}

func TestEarlyPrunePreservesOutput(t *testing.T) {
	fx := makeFixture(t, 300)
	seqOut, _, pioOut, _, _ := runAllThree(t, fx, 5, 0, vfs.XFSLike(), nil, core.Options{EarlyPrune: true})
	if !bytes.Equal(seqOut, pioOut) {
		t.Fatal("early-prune changed the output")
	}
}

func TestIndependentOutputPreservesBytes(t *testing.T) {
	fx := makeFixture(t, 300)
	seqOut, _, pioOut, _, _ := runAllThree(t, fx, 4, 0, vfs.XFSLike(), nil, core.Options{IndependentOutput: true})
	if !bytes.Equal(seqOut, pioOut) {
		t.Fatal("independent-output mode changed the bytes")
	}
}

func TestNoLocalDiskUsesSharedScratch(t *testing.T) {
	// The Altix case: no node-local storage; the baseline copies fragments
	// to shared scratch instead and everything still works.
	fx := makeFixture(t, 300)
	seqOut, mpiOut, pioOut, mpiRes, _ := runAllThree(t, fx, 4, 0, vfs.XFSLike(), nil, core.Options{})
	if !bytes.Equal(seqOut, mpiOut) || !bytes.Equal(seqOut, pioOut) {
		t.Fatal("diskless platform broke equivalence")
	}
	if mpiRes.Phase.Copy <= 0 {
		t.Fatal("baseline should still pay a copy phase on shared scratch")
	}
}

func TestPioBLASTFasterAndPhaseShapes(t *testing.T) {
	fx := makeFixture(t, 500)
	_, _, _, mpiRes, pioRes := runAllThree(t, fx, 6, 0, vfs.XFSLike(), localDisk(), core.Options{})
	if pioRes.Wall >= mpiRes.Wall {
		t.Fatalf("pioBLAST (%.2fs) not faster than mpiBLAST (%.2fs)", pioRes.Wall, mpiRes.Wall)
	}
	// Phase structure: baseline has a copy phase and no input phase;
	// pioBLAST is the reverse.
	if mpiRes.Phase.Copy <= 0 {
		t.Fatalf("baseline copy phase missing: %+v", mpiRes.Phase)
	}
	if mpiRes.Phase.Input != 0 {
		t.Fatalf("baseline should have no input phase: %+v", mpiRes.Phase)
	}
	if pioRes.Phase.Copy != 0 {
		t.Fatalf("pioBLAST should have no copy phase: %+v", pioRes.Phase)
	}
	if pioRes.Phase.Input <= 0 {
		t.Fatalf("pioBLAST input phase missing: %+v", pioRes.Phase)
	}
	// Output phase: the paper's headline — pioBLAST's is far smaller.
	if pioRes.Phase.Output >= mpiRes.Phase.Output {
		t.Fatalf("pioBLAST output phase (%.2f) not below baseline (%.2f)",
			pioRes.Phase.Output, mpiRes.Phase.Output)
	}
}

func TestRunDeterminism(t *testing.T) {
	fx := makeFixture(t, 300)
	run := func() (engine.RunResult, []byte) {
		nodes := fx.newCluster(t, 4, vfs.XFSLike(), localDisk(), 0)
		job := *fx.job
		res, err := core.Run(nodes, 4, testCost(), &job, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out, _ := nodes[0].Shared.ReadFile(job.OutputPath)
		return res, out
	}
	r1, o1 := run()
	r2, o2 := run()
	if r1.Wall != r2.Wall {
		t.Fatalf("wall time nondeterministic: %g vs %g", r1.Wall, r2.Wall)
	}
	if !bytes.Equal(o1, o2) {
		t.Fatal("output nondeterministic")
	}
}

func TestMultiVolumeDatabase(t *testing.T) {
	// Format with small volumes so the global DB spans several files; the
	// engines must read across volume boundaries correctly.
	fx := makeFixture(t, 300)

	seqNodes, err := vfs.Cluster(1, vfs.RAMDisk(), nil)
	if err != nil {
		t.Fatal(err)
	}
	seqs, _ := workload.SynthesizeDB(workload.DBConfig{Kind: seq.Protein, NumSeqs: 60, MeanLen: 150, Seed: 101})
	if _, err := formatdb.Format(seqNodes[0].Shared, "nr", seqs, formatdb.Config{
		Title: "synthetic nr", Kind: seq.Protein, VolumeMaxResidues: workload.TotalResidues(seqs) / 4,
	}); err != nil {
		t.Fatal(err)
	}
	seqJob := *fx.job
	if err := engine.RunSequential(seqNodes[0].Shared, &seqJob); err != nil {
		t.Fatal(err)
	}
	want, _ := seqNodes[0].Shared.ReadFile(fx.job.OutputPath)

	nodes, err := vfs.Cluster(4, vfs.XFSLike(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := formatdb.Format(nodes[0].Shared, "nr", seqs, formatdb.Config{
		Title: "synthetic nr", Kind: seq.Protein, VolumeMaxResidues: workload.TotalResidues(seqs) / 4,
	}); err != nil {
		t.Fatal(err)
	}
	job := *fx.job
	if _, err := core.Run(nodes, 4, testCost(), &job, core.Options{}); err != nil {
		t.Fatal(err)
	}
	got, _ := nodes[0].Shared.ReadFile(job.OutputPath)
	if !bytes.Equal(want, got) {
		t.Fatalf("multi-volume pioBLAST output differs (%d vs %d bytes)", len(got), len(want))
	}
}

func TestRunValidation(t *testing.T) {
	fx := makeFixture(t, 300)
	nodes := fx.newCluster(t, 2, vfs.XFSLike(), nil, 0)
	if _, err := core.Run(nodes, 1, testCost(), fx.job, core.Options{}); err == nil {
		t.Fatal("1-rank pioBLAST accepted")
	}
	bad := *fx.job
	bad.DBBase = "missing"
	if _, err := core.Run(nodes, 2, testCost(), &bad, core.Options{}); err == nil {
		t.Fatal("missing database accepted by pioBLAST")
	}
	if _, err := mpiblast.Run(nodes, 2, testCost(), &bad); err == nil {
		t.Fatal("missing database accepted by baseline")
	}
	// Baseline without prepared fragments must fail with a clear error.
	if _, err := mpiblast.Run(nodes, 2, testCost(), fx.job); err == nil ||
		!strings.Contains(err.Error(), "fragment") {
		t.Fatalf("missing fragments not diagnosed: %v", err)
	}
}

// TestOptionPlan: the one plan() behind RunConfig and Serve either honours
// an option or rejects it with a reason — it never drops one silently.
func TestOptionPlan(t *testing.T) {
	fx := makeFixture(t, 600)
	slow := []float64{1, 1, 3}
	rows := []struct {
		name    string
		opts    core.Options
		speeds  []float64 // mpi.Config.Speeds
		wantErr string    // "" = must run
	}{
		{"negative query batch", core.Options{QueryBatch: -1}, nil, "negative query batch"},
		{"negative prefetch depth", core.Options{PrefetchDepth: -1}, nil, "negative prefetch depth"},
		{"collective read with dynamic assignment", core.Options{CollectiveRead: true, DynamicAssignment: true}, nil, "collective read requires static assignment"},
		{"negative memory budget", core.Options{MemoryBudgetBytes: -1}, nil, "negative memory budget"},
		{"memory budget with query batch", core.Options{MemoryBudgetBytes: 64 << 10, QueryBatch: 4}, nil, "both set the batch boundaries"},
		{"negative merge fan-out without tree merge", core.Options{MergeFanout: -1}, nil, "negative merge fan-out"},
		{"config speeds alone", core.Options{}, slow, ""},
		{"homogeneous", core.Options{}, nil, ""},
	}
	walls := make(map[string]float64)
	for _, row := range rows {
		nodes := fx.newCluster(t, 3, vfs.XFSLike(), nil, 0)
		job := *fx.job
		res, err := core.RunConfig(nodes, 3, mpiCfg(row.speeds), &job, row.opts)
		if row.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), row.wantErr) {
				t.Errorf("%s: want error containing %q, got %v", row.name, row.wantErr, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", row.name, err)
		}
		walls[row.name] = res.Wall
	}
	if walls["config speeds alone"] <= walls["homogeneous"] {
		t.Errorf("a 3x-slow worker did not slow the run: walls %v", walls)
	}
}

func TestDynamicAssignmentPreservesOutput(t *testing.T) {
	fx := makeFixture(t, 300)
	seqOut, _, pioOut, _, _ := runAllThree(t, fx, 5, 12, vfs.XFSLike(), nil,
		core.Options{DynamicAssignment: true})
	if !bytes.Equal(seqOut, pioOut) {
		t.Fatal("dynamic assignment changed the output")
	}
}

func TestQueryBatchingPreservesOutput(t *testing.T) {
	fx := makeFixture(t, 300)
	for _, batch := range []int{2, 3, 100} {
		seqOut, _, pioOut, _, _ := runAllThree(t, fx, 4, 0, vfs.XFSLike(), nil,
			core.Options{QueryBatch: batch})
		if !bytes.Equal(seqOut, pioOut) {
			t.Fatalf("query batch %d changed the output", batch)
		}
	}
}

func TestCombinedOptionsPreserveOutput(t *testing.T) {
	fx := makeFixture(t, 300)
	seqOut, _, pioOut, _, _ := runAllThree(t, fx, 5, 15, vfs.XFSLike(), nil,
		core.Options{DynamicAssignment: true, EarlyPrune: true, QueryBatch: 4})
	if !bytes.Equal(seqOut, pioOut) {
		t.Fatal("combined extension options changed the output")
	}
}

func TestHeterogeneousDynamicBeatsStatic(t *testing.T) {
	// On a cluster where a quarter of the workers run at 1/3 speed,
	// greedy fragment assignment with fine granularity must beat static
	// natural partitioning — the §5 load-balancing claim.
	// Needs a search-dominated workload so that compute skew is what
	// matters; the shared fixture is too small for that.
	seqs, err := workload.SynthesizeDB(workload.DBConfig{
		Kind: seq.Protein, NumSeqs: 300, MeanLen: 250, Seed: 31, FamilySize: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	hq, err := workload.SampleQueries(seqs, workload.QueryConfig{
		TargetBytes: 4000, MeanLen: 300, MutationRate: 0.05, Seed: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	speeds := make([]float64, 9)
	for i := range speeds {
		speeds[i] = 1
	}
	speeds[7], speeds[8] = 3, 3 // two slow nodes

	run := func(opts core.Options, fragments int) engine.RunResult {
		nodes, err := vfs.Cluster(9, vfs.XFSLike(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := formatdb.Format(nodes[0].Shared, "nr", seqs, formatdb.Config{
			Title: "hetero nr", Kind: seq.Protein,
		}); err != nil {
			t.Fatal(err)
		}
		job := &engine.Job{
			DBBase: "nr", Queries: hq, Options: blast.DefaultProteinOptions(),
			OutputPath: "out", Fragments: fragments,
		}
		res, err := core.RunConfig(nodes, 9, mpiCfg(speeds), job, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static := run(core.Options{}, 0)
	dynamic := run(core.Options{DynamicAssignment: true}, 32)
	if dynamic.Wall >= static.Wall {
		t.Fatalf("dynamic assignment (%.3fs) not faster than static (%.3fs) on a heterogeneous cluster",
			dynamic.Wall, static.Wall)
	}
}

func TestQueryBatchingReducesOutputTime(t *testing.T) {
	// Batching amortizes per-query collective costs; with many queries
	// the batched run's output phase must not be larger.
	fx := makeFixture(t, 500)
	run := func(batch int) engine.RunResult {
		nodes := fx.newCluster(t, 6, vfs.XFSLike(), nil, 0)
		job := *fx.job
		res, err := core.Run(nodes, 6, testCost(), &job, core.Options{QueryBatch: batch})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	perQuery := run(1)
	batched := run(8)
	if batched.Phase.Output > perQuery.Phase.Output*1.05 {
		t.Fatalf("batched output phase (%.3fs) worse than per-query (%.3fs)",
			batched.Phase.Output, perQuery.Phase.Output)
	}
}

func mpiCfg(speeds []float64) mpi.Config {
	return mpi.Config{Cost: testCost(), Speeds: speeds}
}

func TestTabularOutputAcrossEngines(t *testing.T) {
	fx := makeFixture(t, 300)
	fx.job.Options.OutFormat = blast.FormatTabular
	seqOut, mpiOut, pioOut, _, _ := runAllThree(t, fx, 4, 0, vfs.XFSLike(), nil, core.Options{})
	if !bytes.Equal(seqOut, mpiOut) || !bytes.Equal(seqOut, pioOut) {
		t.Fatal("tabular outputs differ across engines")
	}
	text := string(seqOut)
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

func TestFilteredSearchAcrossEngines(t *testing.T) {
	fx := makeFixture(t, 300)
	fx.job.Options.FilterLowComplexity = true
	seqOut, mpiOut, pioOut, _, _ := runAllThree(t, fx, 4, 0, vfs.XFSLike(), nil, core.Options{})
	if !bytes.Equal(seqOut, mpiOut) || !bytes.Equal(seqOut, pioOut) {
		t.Fatal("filtered outputs differ across engines")
	}
}

func TestAdaptiveBatchingPreservesOutput(t *testing.T) {
	fx := makeFixture(t, 500)
	for _, budget := range []int64{1, 4096, 1 << 20} {
		seqOut, _, pioOut, _, _ := runAllThree(t, fx, 5, 0, vfs.XFSLike(), nil,
			core.Options{MemoryBudgetBytes: budget})
		if !bytes.Equal(seqOut, pioOut) {
			t.Fatalf("budget %d changed the output", budget)
		}
	}
}

func TestAdaptiveBoundsProperties(t *testing.T) {
	volumes := []int64{100, 900, 50, 50, 50, 2000, 10}
	bounds := core.AdaptiveBoundsForTest(volumes, 1000)
	// Boundaries must start at 0, end at len, be strictly increasing.
	if bounds[0] != 0 || bounds[len(bounds)-1] != len(volumes) {
		t.Fatalf("bounds endpoints wrong: %v", bounds)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not increasing: %v", bounds)
		}
	}
	// Each multi-query batch fits the budget; single-query batches may
	// exceed it (a query's output is indivisible).
	for i := 0; i+1 < len(bounds); i++ {
		var sum int64
		for q := bounds[i]; q < bounds[i+1]; q++ {
			sum += volumes[q]
		}
		if bounds[i+1]-bounds[i] > 1 && sum > 1000 {
			t.Fatalf("batch [%d,%d) volume %d exceeds budget: %v", bounds[i], bounds[i+1], sum, bounds)
		}
	}
	// A huge budget yields one batch; a tiny budget yields one per query.
	if got := core.AdaptiveBoundsForTest(volumes, 1<<40); len(got) != 2 {
		t.Fatalf("huge budget should give one batch: %v", got)
	}
	if got := core.AdaptiveBoundsForTest(volumes, 1); len(got) != len(volumes)+1 {
		t.Fatalf("tiny budget should give per-query batches: %v", got)
	}
}

// --- Read path: collective input reads and input/search overlap ---

func TestCollectiveReadPreservesOutput(t *testing.T) {
	fx := makeFixture(t, 300)
	for _, prof := range []vfs.Profile{vfs.XFSLike(), vfs.NFSLike()} {
		seqOut, _, pioOut, _, _ := runAllThree(t, fx, 4, 9, prof, nil,
			core.Options{CollectiveRead: true})
		if !bytes.Equal(seqOut, pioOut) {
			t.Fatalf("collective reads changed the output on %s (first diff %d)",
				prof.Name, firstDiff(seqOut, pioOut))
		}
	}
}

func TestPrefetchPreservesOutput(t *testing.T) {
	fx := makeFixture(t, 300)
	for _, depth := range []int{1, 2, 4} {
		seqOut, _, pioOut, _, _ := runAllThree(t, fx, 4, 9, vfs.XFSLike(), nil,
			core.Options{PrefetchDepth: depth})
		if !bytes.Equal(seqOut, pioOut) {
			t.Fatalf("prefetch depth %d changed the output", depth)
		}
	}
}

// TestReadPathCombosPreserveOutput sweeps every legal combination of
// collective reads, prefetch, and dynamic assignment (under dynamic
// assignment the prefetch pipelines the greedy protocol).
func TestReadPathCombosPreserveOutput(t *testing.T) {
	fx := makeFixture(t, 300)
	for _, dynamic := range []bool{false, true} {
		for _, collective := range []bool{false, true} {
			if dynamic && collective {
				continue // rejected by the plan (TestOptionPlan)
			}
			for _, depth := range []int{0, 1, 2} {
				opts := core.Options{
					DynamicAssignment: dynamic,
					CollectiveRead:    collective,
					PrefetchDepth:     depth,
				}
				seqOut, _, pioOut, _, _ := runAllThree(t, fx, 5, 12, vfs.XFSLike(), nil, opts)
				if !bytes.Equal(seqOut, pioOut) {
					t.Fatalf("opts %+v changed the output (first diff %d)",
						opts, firstDiff(seqOut, pioOut))
				}
			}
		}
	}
}

// TestCollectiveReadReducesInputTime is the read-side §3 claim on the
// strided platform: many workers each reading many small extents from the
// one NFS channel pay per-operation latency, while the collective
// aggregates them into a few large sieved reads.
func TestCollectiveReadReducesInputTime(t *testing.T) {
	fx := makeFixture(t, 400)
	run := func(opts core.Options) engine.RunResult {
		nodes := fx.newCluster(t, 5, vfs.NFSLike(), nil, 0)
		job := *fx.job
		job.Fragments = 16
		res, err := core.Run(nodes, 5, testCost(), &job, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	indep := run(core.Options{})
	coll := run(core.Options{CollectiveRead: true})
	if coll.Phase.Input >= indep.Phase.Input {
		t.Fatalf("collective input phase %.4fs not below independent %.4fs",
			coll.Phase.Input, indep.Phase.Input)
	}
}

// TestPrefetchReducesWall: with the input stage pipelined against search,
// partition reads after the first hide behind compute, shrinking makespan.
// Needs spare storage parallelism (XFS's channel pool) — on the one-channel
// NFS profile with several workers, cross-worker contention already keeps
// the channel saturated and overlap cannot shorten the critical path.
func TestPrefetchReducesWall(t *testing.T) {
	fx := makeFixture(t, 1200)
	run := func(n int, prof vfs.Profile, opts core.Options) engine.RunResult {
		nodes := fx.newCluster(t, n, prof, nil, 0)
		job := *fx.job
		job.Fragments = 12
		res, err := core.Run(nodes, n, testCost(), &job, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	syncRes := run(4, vfs.XFSLike(), core.Options{})
	async := run(4, vfs.XFSLike(), core.Options{PrefetchDepth: 2})
	if async.Wall >= syncRes.Wall {
		t.Fatalf("prefetch wall %.4fs not below synchronous %.4fs", async.Wall, syncRes.Wall)
	}
	if async.Phase.Input >= syncRes.Phase.Input {
		t.Fatalf("prefetch input phase %.4fs not below synchronous %.4fs (nothing hidden)",
			async.Phase.Input, syncRes.Phase.Input)
	}
	dynSync := run(4, vfs.XFSLike(), core.Options{DynamicAssignment: true})
	dynAsync := run(4, vfs.XFSLike(), core.Options{DynamicAssignment: true, PrefetchDepth: 1})
	if dynAsync.Wall >= dynSync.Wall {
		t.Fatalf("dynamic prefetch wall %.4fs not below synchronous %.4fs",
			dynAsync.Wall, dynSync.Wall)
	}
	// Uncontended NFS (one worker): every read after the first hides
	// entirely behind the previous partition's search.
	nfsSync := run(2, vfs.NFSLike(), core.Options{})
	nfsAsync := run(2, vfs.NFSLike(), core.Options{PrefetchDepth: 2})
	if nfsAsync.Wall >= nfsSync.Wall {
		t.Fatalf("NFS prefetch wall %.4fs not below synchronous %.4fs", nfsAsync.Wall, nfsSync.Wall)
	}
}

// TestSearchPhaseExcludesQueueing is the regression test for the dynamic
// loop's phase misattribution: waiting at the master's assignment queue was
// billed to the search phase. Search must be pure compute — invariant under
// a 100× network latency change.
func TestSearchPhaseExcludesQueueing(t *testing.T) {
	fx := makeFixture(t, 400)
	run := func(lat float64) engine.RunResult {
		nodes := fx.newCluster(t, 4, vfs.XFSLike(), nil, 0)
		job := *fx.job
		job.Fragments = 9
		cost := testCost()
		cost.NetLatency = lat
		res, err := core.Run(nodes, 4, cost, &job, core.Options{DynamicAssignment: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast := run(40e-6)
	slow := run(4e-3)
	if fast.Phase.Search != slow.Phase.Search {
		t.Fatalf("search phase depends on net latency (%.6fs vs %.6fs): rendezvous wait is misattributed",
			fast.Phase.Search, slow.Phase.Search)
	}
	// The extra latency is real — it must show up in the wall clock (as
	// idle/queueing), just not in the search bucket.
	if slow.Wall <= fast.Wall {
		t.Fatalf("slower network should raise wall time (%.6fs vs %.6fs)", slow.Wall, fast.Wall)
	}
}

// TestFileOpenCacheBoundsOpens: satellite for the triple-open bug — each
// worker now opens every database file once, regardless of how many
// partitions it reads.
func TestFileOpenCacheBoundsOpens(t *testing.T) {
	fx := makeFixture(t, 300)
	nodes := fx.newCluster(t, 4, vfs.XFSLike(), nil, 0)
	reg := metrics.NewRegistry()
	job := *fx.job
	job.Fragments = 18
	cfg := mpi.Config{Cost: testCost(), Metrics: reg}
	if _, err := core.RunConfig(nodes, 4, cfg, &job, core.Options{}); err != nil {
		t.Fatal(err)
	}
	var opens int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "mpiio.opens" {
			opens += c.Value
		}
	}
	// Per rank: 3 database files per volume (1 volume here) + the shared
	// output file. Without the cache this would be 3 opens per partition:
	// 18 partitions / 3 workers × 3 + 1 = 19 per worker.
	maxOpens := int64(4 * (3 + 1))
	if opens == 0 || opens > maxOpens {
		t.Fatalf("mpiio.opens = %d, want 1..%d (file handles not cached?)", opens, maxOpens)
	}
}

// TestBatchBoundsEdges covers the degenerate batching inputs: no queries,
// non-positive batch size, zero/negative budget, one over-budget query,
// and all-zero volumes. Bounds must always start at 0, end at n, and be
// strictly increasing.
func TestBatchBoundsEdges(t *testing.T) {
	checkBounds := func(name string, bounds []int, n int) {
		t.Helper()
		if bounds[0] != 0 || bounds[len(bounds)-1] != n {
			t.Fatalf("%s: endpoints wrong: %v (n=%d)", name, bounds, n)
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				t.Fatalf("%s: bounds not strictly increasing: %v", name, bounds)
			}
		}
	}
	if got := core.FixedBoundsForTest(0, 5); len(got) != 1 || got[0] != 0 {
		t.Fatalf("fixedBounds(0) = %v, want [0]", got)
	}
	if got := core.FixedBoundsForTest(-3, 5); len(got) != 1 || got[0] != 0 {
		t.Fatalf("fixedBounds(-3) = %v, want [0]", got)
	}
	checkBounds("b=0 clamps to 1", core.FixedBoundsForTest(4, 0), 4)
	if got := core.FixedBoundsForTest(4, 0); len(got) != 5 {
		t.Fatalf("fixedBounds(4, 0) = %v, want per-query batches", got)
	}
	checkBounds("b>n", core.FixedBoundsForTest(3, 100), 3)

	if got := core.AdaptiveBoundsForTest(nil, 100); len(got) != 1 || got[0] != 0 {
		t.Fatalf("adaptiveBounds(no queries) = %v, want [0]", got)
	}
	vols := []int64{10, 10, 10}
	for _, budget := range []int64{0, -5} {
		got := core.AdaptiveBoundsForTest(vols, budget)
		checkBounds("non-positive budget", got, len(vols))
		if len(got) != len(vols)+1 {
			t.Fatalf("budget %d should give per-query batches: %v", budget, got)
		}
	}
	// One query alone over budget still forms its own (single-query) batch.
	over := []int64{5, 1000, 5}
	checkBounds("over-budget query", core.AdaptiveBoundsForTest(over, 100), len(over))
	// All-zero volumes never exceed any budget: one batch.
	zeros := []int64{0, 0, 0, 0}
	got := core.AdaptiveBoundsForTest(zeros, 0)
	checkBounds("all-zero volumes", got, len(zeros))
}

// TestExchangeThresholdBoundary: with exactly k global hits the threshold
// must be the k-th best score, not the no-prune sentinel (the off-by-one
// this PR fixes); with k-1 hits it must fall back to the sentinel.
func TestExchangeThresholdBoundary(t *testing.T) {
	const k = 4
	scores := [][]int64{{90, 50}, {70, 60}} // exactly k across 2 ranks
	got := make([]int64, 2)
	if _, err := mpi.Run(2, testCost(), func(r *mpi.Rank) error {
		got[r.ID()] = core.ExchangeThresholdForTest(r, scores[r.ID()], k)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got[0] != got[1] {
		t.Fatalf("threshold differs across ranks: %d vs %d", got[0], got[1])
	}
	if got[0] != 50 {
		t.Fatalf("threshold with exactly k hits = %d, want 50 (k-th best)", got[0])
	}
	short := [][]int64{{90}, {70, 60}} // k-1 hits
	if _, err := mpi.Run(2, testCost(), func(r *mpi.Rank) error {
		got[r.ID()] = core.ExchangeThresholdForTest(r, short[r.ID()], k)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got[0] != -1<<62 {
		t.Fatalf("threshold with k-1 hits = %d, want the no-prune sentinel", got[0])
	}
}

// TestReadPathSurvivesTransientIOFaults: deterministic transient storage
// errors (failed attempts + backoff) delay reads but must never change the
// output bytes, in any read-path mode.
func TestReadPathSurvivesTransientIOFaults(t *testing.T) {
	fx := makeFixture(t, 300)

	seqNodes := fx.newCluster(t, 1, vfs.RAMDisk(), nil, 0)
	seqJob := *fx.job
	if err := engine.RunSequential(seqNodes[0].Shared, &seqJob); err != nil {
		t.Fatal(err)
	}
	oracle, err := seqNodes[0].Shared.ReadFile(fx.job.OutputPath)
	if err != nil {
		t.Fatal(err)
	}

	for _, opts := range []core.Options{
		{CollectiveRead: true},
		{PrefetchDepth: 2},
		{DynamicAssignment: true, PrefetchDepth: 1},
	} {
		nodes := fx.newCluster(t, 4, vfs.NFSLike(), nil, 0)
		if err := nodes[0].Shared.InjectFaults(vfs.FaultPlan{
			FirstOp: 2, Every: 3, Failures: 2, Backoff: 1e-3,
		}); err != nil {
			t.Fatal(err)
		}
		job := *fx.job
		job.Fragments = 9
		if _, err := core.Run(nodes, 4, testCost(), &job, opts); err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		out, err := nodes[0].Shared.ReadFile(job.OutputPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, oracle) {
			t.Fatalf("opts %+v: transient I/O faults changed the output (first diff %d)",
				opts, firstDiff(out, oracle))
		}
	}
}
