package core_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"parblast/internal/core"
	"parblast/internal/engine"
	"parblast/internal/metrics"
	"parblast/internal/mpi"
	"parblast/internal/mpiblast"
	"parblast/internal/trace"
	"parblast/internal/vfs"
	"parblast/internal/workload"
)

// serveArrivals generates the fixture's arrival stream.
func serveArrivals(t *testing.T, fx *fixture, cfg workload.ArrivalConfig) []workload.Batch {
	t.Helper()
	batches, err := workload.Arrivals(fx.queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return batches
}

// runServePio runs the pio engine in serving mode on a fresh cluster.
func runServePio(t *testing.T, fx *fixture, nprocs int, cfg mpi.Config, opts core.Options, batches []workload.Batch, admitCap int) (engine.RunResult, engine.ServeStats, []byte) {
	t.Helper()
	nodes := fx.newCluster(t, nprocs, vfs.XFSLike(), localDisk(), 0)
	job := *fx.job
	res, stats, err := core.Run(nodes, nprocs, cfg, &job, opts, &engine.Stream{Batches: batches, AdmitCap: admitCap})
	if err != nil {
		t.Fatalf("serve run failed: %v", err)
	}
	out, err := nodes[0].Shared.ReadFile(fx.job.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	return res, stats, out
}

// runServeMpi runs the baseline engine in serving mode on a fresh cluster.
func runServeMpi(t *testing.T, fx *fixture, nprocs int, cfg mpi.Config, opts mpiblast.Options, batches []workload.Batch, admitCap int) (engine.RunResult, engine.ServeStats, []byte) {
	t.Helper()
	nodes := fx.newCluster(t, nprocs, vfs.XFSLike(), localDisk(), 0)
	if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", nprocs-1); err != nil {
		t.Fatal(err)
	}
	job := *fx.job
	res, stats, err := mpiblast.Run(nodes, nprocs, cfg, &job, opts, &engine.Stream{Batches: batches, AdmitCap: admitCap})
	if err != nil {
		t.Fatalf("mpiblast serve run failed: %v", err)
	}
	out, err := nodes[0].Shared.ReadFile(fx.job.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	return res, stats, out
}

// TestBaselineMergeSeriesMatchAcrossModes: the baseline master's final
// per-query selection is booked into blast.hsps_kept/dropped exactly where a
// merge cost is charged — on the flat protocol, never on the tree protocol,
// whose combiners already paid for and recorded the merge — so serving the
// whole query set does the same merge work as the one-shot run and must
// show the same series, in both protocols. (One worker, so the tree has a
// single combine per fold: with more, the interior nodes fold bundles in
// arrival order, and the kept/dropped split of the same merge depends on
// that order.)
func TestBaselineMergeSeriesMatchAcrossModes(t *testing.T) {
	const nprocs = 2
	fx := makeFixture(t, 1200)
	batches := serveArrivals(t, fx, workload.ArrivalConfig{Rate: 50, BatchMean: 2, Seed: 7})
	for _, tree := range []bool{false, true} {
		opts := mpiblast.Options{TreeMerge: tree}
		oneReg := metrics.NewRegistry()
		nodes := fx.newCluster(t, nprocs, vfs.XFSLike(), localDisk(), 0)
		if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", nprocs-1); err != nil {
			t.Fatal(err)
		}
		job := *fx.job
		if _, _, err := mpiblast.Run(nodes, nprocs, mpi.Config{Cost: testCost(), Metrics: oneReg}, &job, opts, nil); err != nil {
			t.Fatal(err)
		}
		serveReg := metrics.NewRegistry()
		runServeMpi(t, fx, nprocs, mpi.Config{Cost: testCost(), Metrics: serveReg}, opts, batches, 0)
		one, served := oneReg.Snapshot(), serveReg.Snapshot()
		for _, series := range []string{"blast.hsps_kept", "blast.hsps_dropped"} {
			if a, b := one.CounterTotal(series), served.CounterTotal(series); a != b {
				t.Errorf("tree=%v: %s is %d one-shot but %d served", tree, series, a, b)
			}
		}
		if one.CounterTotal("blast.hsps_kept") == 0 {
			t.Errorf("tree=%v: no merges recorded at all", tree)
		}
	}
}

// TestServeMpiblastRejectsFaults: the baseline's recovery story (re-copying
// whole physical fragments) is one-shot only; a fault schedule must be a
// clean up-front error, not a hang.
func TestServeMpiblastRejectsFaults(t *testing.T) {
	fx := makeFixture(t, 600)
	batches := serveArrivals(t, fx, workload.ArrivalConfig{Rate: 1, Seed: 1})
	nodes := fx.newCluster(t, 3, vfs.XFSLike(), localDisk(), 0)
	if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", 2); err != nil {
		t.Fatal(err)
	}
	job := *fx.job
	cfg := mpi.Config{Cost: testCost(), Faults: []mpi.Fault{{Rank: 2, At: 0.5}}}
	if _, _, err := mpiblast.Run(nodes, 3, cfg, &job, mpiblast.Options{}, &engine.Stream{Batches: batches}); err == nil ||
		!strings.Contains(err.Error(), "fault injection") {
		t.Errorf("mpiblast serve accepted a fault schedule: %v", err)
	}
}

// TestServeLatencyGrowsWithRate: the open-loop arrival stream is the same
// batch sequence at every rate (exact rate scaling), so pushing the rate up
// can only add queueing delay — tail latency must not improve.
func TestServeLatencyGrowsWithRate(t *testing.T) {
	const nprocs = 4
	fx := makeFixture(t, 2000)
	p99 := func(rate float64) float64 {
		batches := serveArrivals(t, fx, workload.ArrivalConfig{Rate: rate, Seed: 11})
		res, _, _ := runServePio(t, fx, nprocs, mpi.Config{Cost: testCost()}, core.Options{}, batches, 0)
		return metrics.ExactQuantile(res.QueryLatencies, 0.99)
	}
	slow, fast := p99(0.05), p99(50)
	if fast < slow {
		t.Fatalf("p99 at rate 50 (%g) below p99 at rate 0.05 (%g)", fast, slow)
	}
	if fast <= slow {
		t.Logf("warning: saturating rate did not strictly raise p99 (%g vs %g)", fast, slow)
	}
}

// TestServeSheddingDeterministic: with a tight admission cap and a
// saturating rate, some batches must be shed; the shed set is exactly
// reproducible, and the streamed output equals a one-shot run over exactly
// the admitted queries.
func TestServeSheddingDeterministic(t *testing.T) {
	const nprocs = 4
	fx := makeFixture(t, 2000)
	batches := serveArrivals(t, fx, workload.ArrivalConfig{
		Rate: 100, Burst: 4, BatchMean: 2, Seed: 23,
	})

	res1, stats1, out1 := runServePio(t, fx, nprocs, mpi.Config{Cost: testCost()}, core.Options{}, batches, 1)
	if stats1.Shed == 0 {
		t.Fatal("saturating rate with cap 1 shed nothing")
	}
	if stats1.Arrivals != stats1.Admitted+stats1.Shed {
		t.Fatalf("accounting wrong: %+v", stats1)
	}
	if len(res1.QueryLatencies) == len(fx.queries) {
		t.Fatal("shed batches still have latencies recorded")
	}

	res2, stats2, out2 := runServePio(t, fx, nprocs, mpi.Config{Cost: testCost()}, core.Options{}, batches, 1)
	if !reflect.DeepEqual(stats1.ShedSeqs, stats2.ShedSeqs) {
		t.Fatalf("shed set not reproducible: %v vs %v", stats1.ShedSeqs, stats2.ShedSeqs)
	}
	if !bytes.Equal(out1, out2) || !reflect.DeepEqual(res1.QueryLatencies, res2.QueryLatencies) {
		t.Fatal("shedding run not deterministic")
	}

	// One-shot oracle over exactly the admitted queries.
	shed := make(map[int]bool)
	for _, s := range stats1.ShedSeqs {
		shed[s] = true
	}
	admitted := fx.queries[:0:0]
	nAdmitted := 0
	for _, b := range batches {
		if !shed[b.Seq] {
			admitted = append(admitted, b.Queries...)
			nAdmitted += len(b.Queries)
		}
	}
	oracleFx := &fixture{queries: admitted, job: fx.job}
	oj := *fx.job
	oj.Queries = admitted
	oracleFx.job = &oj
	_, oracleOut := runPio(t, oracleFx, nprocs, mpi.Config{Cost: testCost()}, core.Options{})
	if !bytes.Equal(out1, oracleOut) {
		t.Fatalf("streamed output with shedding differs from one-shot over admitted queries at byte %d",
			firstDiff(out1, oracleOut))
	}
	if len(res1.QueryLatencies) != nAdmitted {
		t.Fatalf("%d latencies for %d admitted queries", len(res1.QueryLatencies), nAdmitted)
	}
}

// TestServeCrashKeepsAdmissionClock (satellite: re-issued work after a
// crash must keep the original admission clock): a worker crash mid-stream
// leaves the output byte-identical to the crash-free stream, costs virtual
// time, and that cost lands in the affected queries' latencies — they can
// only grow, never reset.
func TestServeCrashKeepsAdmissionClock(t *testing.T) {
	const nprocs = 4
	fx := makeFixture(t, 2000)
	batches := serveArrivals(t, fx, workload.ArrivalConfig{Rate: 0.2, BatchMean: 2, Seed: 31})
	opts := core.Options{FaultTolerant: true}

	free, freeStats, freeOut := runServePio(t, fx, nprocs, mpi.Config{Cost: testCost()}, opts, batches, 0)
	if freeStats.Shed != 0 {
		t.Fatalf("trickle rate shed batches: %+v", freeStats)
	}

	// Aim the crash at a mid-stream batch's search window. The exact phase
	// layout depends on the cost model, so probe a few fractions; a crash
	// landing in an output window is a clean (expected) error, not a pass.
	var crashed engine.RunResult
	var crashedOut []byte
	var faults []mpi.Fault
	mid := len(freeStats.BatchStart) / 2
	hit := false
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.7} {
		at := freeStats.BatchStart[mid] + float64(frac*(freeStats.BatchDone[mid]-freeStats.BatchStart[mid]))
		faults = []mpi.Fault{{Rank: nprocs - 1, At: at}}
		nodes := fx.newCluster(t, nprocs, vfs.XFSLike(), localDisk(), 0)
		job := *fx.job
		res, _, err := core.Run(nodes, nprocs, mpi.Config{Cost: testCost(), Faults: faults}, &job, opts, &engine.Stream{Batches: batches})
		if err != nil {
			if strings.Contains(err.Error(), "output phase") {
				continue
			}
			t.Fatalf("crash at frac %g: %v", frac, err)
		}
		out, err := nodes[0].Shared.ReadFile(fx.job.OutputPath)
		if err != nil {
			t.Fatal(err)
		}
		crashed, crashedOut, hit = res, out, true
		break
	}
	if !hit {
		t.Skip("every probed crash time landed in an output window on this cost model")
	}

	if !bytes.Equal(crashedOut, freeOut) {
		t.Fatalf("output after mid-stream crash differs at byte %d", firstDiff(crashedOut, freeOut))
	}
	if crashed.Wall <= free.Wall {
		t.Fatalf("crashed wall %g not above crash-free %g (no recovery cost?)", crashed.Wall, free.Wall)
	}
	if len(crashed.QueryLatencies) != len(free.QueryLatencies) {
		t.Fatalf("crash changed latency cardinality: %d vs %d",
			len(crashed.QueryLatencies), len(free.QueryLatencies))
	}
	// The admission clock survives recovery: every query's latency is
	// measured from its batch's original arrival, so recovery can only add.
	grew := false
	for q := range crashed.QueryLatencies {
		if crashed.QueryLatencies[q] < free.QueryLatencies[q]-1e-9 {
			t.Fatalf("query %d latency shrank after crash: %g vs %g (admission clock reset?)",
				q, crashed.QueryLatencies[q], free.QueryLatencies[q])
		}
		if crashed.QueryLatencies[q] > free.QueryLatencies[q]+1e-9 {
			grew = true
		}
	}
	if !grew {
		t.Fatal("no query latency grew despite recovery cost")
	}

	// Determinism: the same fault schedule replays exactly.
	again, _, againOut := runServePio(t, fx, nprocs, mpi.Config{Cost: testCost(), Faults: faults}, opts, batches, 0)
	if !bytes.Equal(againOut, crashedOut) || again.Wall != crashed.Wall {
		t.Fatal("crashed serve run not deterministic")
	}
}

// TestServeFlowsSplitByBatch: every flow a serving run emits carries the
// trace-batch id of the arrival batch that caused it, so the per-batch
// message-flow split stays exact under streaming (late replies keep their
// own batch id; see the monotone-adoption rule in internal/mpi).
func TestServeFlowsSplitByBatch(t *testing.T) {
	const nprocs = 4
	fx := makeFixture(t, 1200)
	batches := serveArrivals(t, fx, workload.ArrivalConfig{Rate: 5, BatchMean: 2, Seed: 3})
	col := trace.NewCollector()
	_, stats, _ := runServePio(t, fx, nprocs, mpi.Config{Cost: testCost(), Trace: col}, core.Options{}, batches, 0)
	if stats.Admitted != len(batches) {
		t.Fatalf("admitted %d of %d", stats.Admitted, len(batches))
	}
	perBatch := map[int]int{}
	for _, f := range col.Flows() {
		perBatch[f.Batch]++
	}
	// The job-meta broadcast predates the first arrival (batch -1 context);
	// every arrival batch must contribute its own flows.
	for _, b := range batches {
		if perBatch[b.Seq] == 0 {
			t.Errorf("batch %d produced no flows (batch split broken): %v", b.Seq, perBatch)
		}
	}
}

// TestServeValidation: configurations that cannot keep the cluster warm (or
// streams that do not partition the query set) are rejected up front.
func TestServeValidation(t *testing.T) {
	const nprocs = 3
	fx := makeFixture(t, 600)
	batches := serveArrivals(t, fx, workload.ArrivalConfig{Rate: 1, Seed: 1})
	cfg := mpi.Config{Cost: testCost()}

	try := func(opts core.Options, b []workload.Batch, cap int, wantSub string) {
		t.Helper()
		nodes := fx.newCluster(t, nprocs, vfs.RAMDisk(), nil, 0)
		job := *fx.job
		_, _, err := core.Run(nodes, nprocs, cfg, &job, opts, &engine.Stream{Batches: b, AdmitCap: cap})
		if err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("want error containing %q, got %v", wantSub, err)
		}
	}
	try(core.Options{DynamicAssignment: true}, batches, 0, "static assignment")
	try(core.Options{MemoryBudgetBytes: 1 << 20}, batches, 0, "adaptive batching")
	try(core.Options{QueryBatch: 2}, batches, 0, "query batch")
	try(core.Options{PrefetchDepth: -1}, batches, 0, "negative prefetch depth")
	try(core.Options{}, batches, -1, "admission cap")
	try(core.Options{}, batches[1:], 0, "contiguous")
	truncated := append([]workload.Batch(nil), batches...)
	truncated = truncated[:len(truncated)-1]
	try(core.Options{}, truncated, 0, "covers")

	nodes := fx.newCluster(t, nprocs, vfs.RAMDisk(), nil, 0)
	job := *fx.job
	crashMaster := mpi.Config{Cost: testCost(), Faults: []mpi.Fault{{Rank: 0, At: 0.1}}}
	if _, _, err := core.Run(nodes, nprocs, crashMaster, &job, core.Options{}, &engine.Stream{Batches: batches}); err == nil ||
		!strings.Contains(err.Error(), "rank 0") {
		t.Errorf("serve accepted a master crash: %v", err)
	}
}
