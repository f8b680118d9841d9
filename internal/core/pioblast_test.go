package core_test

import (
	"strings"
	"testing"

	"parblast/internal/blast"
	"parblast/internal/core"
	"parblast/internal/engine"
	"parblast/internal/formatdb"
	"parblast/internal/metrics"
	"parblast/internal/mpi"
	"parblast/internal/mpiblast"
	"parblast/internal/mpiio"
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
	// volMax, when set, is the largest volume, in residues, the oracle
	// tables format the database in.
	volMax int64
}

// fixtureDB synthesizes the database every fixture formats.
func fixtureDB(t *testing.T) []*seq.Sequence {
	t.Helper()
	seqs, err := workload.SynthesizeDB(workload.DBConfig{
		Kind: seq.Protein, NumSeqs: 60, MeanLen: 150, Seed: 101,
	})
	if err != nil {
		t.Fatal(err)
	}
	return seqs
}

// makeFixture samples queries from the same synthetic DB that newCluster
// formats, so queries are guaranteed homologs.
func makeFixture(t *testing.T, queryBytes int) *fixture {
	t.Helper()
	queries, err := workload.SampleQueries(fixtureDB(t), workload.QueryConfig{
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
	db, err := formatdb.Format(nodes[0].Shared, "nr", fixtureDB(t), formatdb.Config{
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

func TestPioBLASTFasterAndPhaseShapes(t *testing.T) {
	fx := makeFixture(t, 500)
	mpiRes, _ := oracleRow{mpi: &mpiblast.Options{}, procs: 6, local: localDisk()}.run(t, fx, nil)
	pioRes, _ := oracleRow{pio: &core.Options{}, procs: 6, local: localDisk()}.run(t, fx, nil)
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

func TestRunValidation(t *testing.T) {
	fx := makeFixture(t, 300)
	nodes := fx.newCluster(t, 2, vfs.XFSLike(), nil, 0)
	if _, _, err := core.Run(nodes, 1, mpi.Config{Cost: testCost()}, fx.job, core.Options{}, nil); err == nil {
		t.Fatal("1-rank pioBLAST accepted")
	}
	bad := *fx.job
	bad.DBBase = "missing"
	if _, _, err := core.Run(nodes, 2, mpi.Config{Cost: testCost()}, &bad, core.Options{}, nil); err == nil {
		t.Fatal("missing database accepted by pioBLAST")
	}
	if _, _, err := mpiblast.Run(nodes, 2, mpi.Config{Cost: testCost()}, &bad, mpiblast.Options{}, nil); err == nil {
		t.Fatal("missing database accepted by baseline")
	}
	// Baseline without prepared fragments must fail with a clear error.
	if _, _, err := mpiblast.Run(nodes, 2, mpi.Config{Cost: testCost()}, fx.job, mpiblast.Options{}, nil); err == nil ||
		!strings.Contains(err.Error(), "fragment") {
		t.Fatalf("missing fragments not diagnosed: %v", err)
	}
}

// TestOptionPlan: the one plan() behind one-shot and serving runs either
// honours an option or rejects it with a reason — it never drops one
// silently. The I/O hints only collective reads read, and the tuner, used to
// run without CollectiveRead as if unset.
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
		{"dynamic assignment two deep", core.Options{DynamicAssignment: true, PrefetchDepth: 2}, nil, "prefetches at most one partition"},
		{"negative memory budget", core.Options{MemoryBudgetBytes: -1}, nil, "negative memory budget"},
		{"memory budget with query batch", core.Options{MemoryBudgetBytes: 64 << 10, QueryBatch: 4}, nil, "both set the batch boundaries"},
		{"negative merge fan-out without tree merge", core.Options{MergeFanout: -1}, nil, "negative merge fan-out"},
		{"merge fan-out without tree merge", core.Options{MergeFanout: 4}, nil, "MergeFanout 4 is the tree merge's fan-out: it needs TreeMerge"},
		{"read strategy without collective read", core.Options{IOHints: mpiio.Hints{ReadStrategy: mpiio.StrategyListIO}}, nil, "IOHints.ReadStrategy is read only by collective reads"},
		{"sieve gap without collective read", core.Options{IOHints: mpiio.Hints{SieveGap: 4096}}, nil, "IOHints.SieveGap is read only by collective reads"},
		{"buffer size without collective read", core.Options{IOHints: mpiio.Hints{CbBufferSize: 1 << 20}}, nil, "IOHints.CbBufferSize is read only by collective reads"},
		{"tuner without collective read", core.Options{IOTuner: mpiio.NewTuner()}, nil, "IOTuner is read only by collective reads"},
		{"aggregators with no collective", core.Options{IndependentOutput: true, IOHints: mpiio.Hints{CbNodes: 2}}, nil, "IOHints.CbNodes caps the aggregators"},
		{"aggregators for the collective write", core.Options{IOHints: mpiio.Hints{CbNodes: 2}}, nil, ""},
		{"aggregators for the collective read", core.Options{IndependentOutput: true, CollectiveRead: true, IOHints: mpiio.Hints{CbNodes: 2}}, nil, ""},
		{"config speeds alone", core.Options{}, slow, ""},
		{"homogeneous", core.Options{}, nil, ""},
	}
	walls := make(map[string]float64)
	for _, row := range rows {
		nodes := fx.newCluster(t, 3, vfs.XFSLike(), nil, 0)
		job := *fx.job
		res, _, err := core.Run(nodes, 3, mpiCfg(row.speeds), &job, row.opts, nil)
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
		res, _, err := core.Run(nodes, 9, mpiCfg(speeds), job, opts, nil)
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
		res, _, err := core.Run(nodes, 6, mpi.Config{Cost: testCost()}, &job, core.Options{QueryBatch: batch}, nil)
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
		res, _, err := core.Run(nodes, 5, mpi.Config{Cost: testCost()}, &job, opts, nil)
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
		res, _, err := core.Run(nodes, n, mpi.Config{Cost: testCost()}, &job, opts, nil)
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
		res, _, err := core.Run(nodes, 4, mpi.Config{Cost: cost}, &job, core.Options{DynamicAssignment: true}, nil)
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
	if _, _, err := core.Run(nodes, 4, cfg, &job, core.Options{}, nil); err != nil {
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
