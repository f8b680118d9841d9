package core_test

import (
	"strings"
	"testing"

	"parblast/internal/core"
	"parblast/internal/engine"
	"parblast/internal/metrics"
	"parblast/internal/mpi"
	"parblast/internal/vfs"
)

// oracleOutput runs the sequential reference on a fresh RAM-disk cluster.
func oracleOutput(t *testing.T, fx *fixture) []byte {
	t.Helper()
	seqNodes := fx.newCluster(t, 1, vfs.RAMDisk(), nil, fx.volMax)
	seqJob := *fx.job
	if err := engine.RunSequential(seqNodes[0].Shared, &seqJob); err != nil {
		t.Fatal(err)
	}
	out, err := seqNodes[0].Shared.ReadFile(fx.job.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runPio runs pioBLAST on a fresh cluster with the given options/config
// and returns the run result plus output bytes.
func runPio(t *testing.T, fx *fixture, nprocs int, cfg mpi.Config, opts core.Options) (engine.RunResult, []byte) {
	t.Helper()
	nodes := fx.newCluster(t, nprocs, vfs.XFSLike(), localDisk(), 0)
	job := *fx.job
	res, _, err := core.Run(nodes, nprocs, cfg, &job, opts, nil)
	if err != nil {
		t.Fatalf("pio run failed: %v", err)
	}
	out, err := nodes[0].Shared.ReadFile(fx.job.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	return res, out
}

// TestTreeMergeRecordsTreeMetrics: the run must expose the tree-shape
// gauges and per-level edge volume of its tree collectives.
func TestTreeMergeRecordsTreeMetrics(t *testing.T) {
	fx := makeFixture(t, 800)
	reg := metrics.NewRegistry()
	cfg := mpi.Config{Cost: testCost(), Metrics: reg}
	_, _ = runPio(t, fx, 6, cfg, core.Options{TreeMerge: true, MergeFanout: 2})
	snap := reg.Snapshot()
	if snap.CounterTotal("mpi.collective.treereduce") == 0 {
		t.Error("no treereduce collectives recorded")
	}
	if snap.CounterTotal("mpi.tree.level01.bytes") == 0 {
		t.Error("no level-1 tree edge volume recorded")
	}
	if snap.GaugeTotal("mpi.tree.fanout") != 2 {
		t.Errorf("fanout gauge = %g, want 2", snap.GaugeTotal("mpi.tree.fanout"))
	}
}

// TestTreeMergeOnlyReduces: the tree merge changes how metadata reaches the
// master and nothing else. Flat and tree runs write the same bytes and send
// the same selections point to point (tag 12, one per worker and batch), and
// every collective-space byte and message of the tree run is an edge of the
// reduction, booked in the per-level series: one edge per worker and batch.
func TestTreeMergeOnlyReduces(t *testing.T) {
	const nprocs = 6
	fx := makeFixture(t, 800)
	run := func(opts core.Options) (metrics.Snapshot, []byte) {
		reg := metrics.NewRegistry()
		_, out := runPio(t, fx, nprocs, mpi.Config{Cost: testCost(), Metrics: reg}, opts)
		return reg.Snapshot(), out
	}
	flat, flatOut := run(core.Options{QueryBatch: 2})
	tree, treeOut := run(core.Options{QueryBatch: 2, TreeMerge: true, MergeFanout: 2})
	if string(flatOut) != string(treeOut) {
		t.Fatal("flat and tree merges wrote different output")
	}
	batches := int64((len(fx.job.Queries) + 1) / 2)
	for _, series := range []string{"mpi.send.tag12.bytes", "mpi.send.tag12.msgs"} {
		if f, tr := flat.CounterTotal(series), tree.CounterTotal(series); f != tr || f == 0 {
			t.Errorf("%s: flat %d, tree %d: the selections must travel alike", series, f, tr)
		}
	}
	if got, want := tree.CounterTotal("mpi.send.tag12.msgs"), batches*(nprocs-1); got != want {
		t.Errorf("selections sent = %d, want %d: one per worker and batch", got, want)
	}
	var edgeBytes, edgeMsgs int64
	for _, c := range tree.Counters {
		if strings.HasPrefix(c.Name, "mpi.tree.level") {
			switch {
			case strings.HasSuffix(c.Name, ".bytes"):
				edgeBytes += c.Value
			case strings.HasSuffix(c.Name, ".msgs"):
				edgeMsgs += c.Value
			}
		}
	}
	if got := tree.CounterTotal("mpi.send.collective.bytes"); got != edgeBytes || got == 0 {
		t.Errorf("collective-space bytes = %d, reduction edges carried %d", got, edgeBytes)
	}
	if got, want := tree.CounterTotal("mpi.send.collective.msgs"), batches*(nprocs-1); got != edgeMsgs || got != want {
		t.Errorf("collective-space messages = %d, reduction edges %d, want %d: one per worker and batch", got, edgeMsgs, want)
	}
}

// TestTreeMergeCrashDuringMergeCleanError: a worker dying inside the
// merge/output window must surface a clean error naming the failure —
// recovery covers the search phase only — rather than hanging or writing
// corrupt output silently.
func TestTreeMergeCrashDuringMergeCleanError(t *testing.T) {
	const nprocs = 5
	fx := makeFixture(t, 1600)
	opts := core.Options{TreeMerge: true, MergeFanout: 2, FaultTolerant: true}
	free, _ := runPio(t, fx, nprocs, mpi.Config{Cost: testCost()}, opts)
	at := free.Wall - float64(0.9*free.Phase.Output)
	nodes := fx.newCluster(t, nprocs, vfs.XFSLike(), localDisk(), 0)
	job := *fx.job
	cfg := mpi.Config{Cost: testCost(), Faults: []mpi.Fault{{Rank: nprocs - 1, At: at}}}
	_, _, err := core.Run(nodes, nprocs, cfg, &job, opts, nil)
	if err == nil {
		t.Fatal("crash inside the merge window reported no error")
	}
	if !strings.Contains(err.Error(), "worker crashed during the hierarchical merge") {
		t.Errorf("merge-window crash ended without the engine's named error: %v", err)
	}
}

// TestTreeMergeRejectsBadFanout: fan-out 1 cannot form a tree.
func TestTreeMergeRejectsBadFanout(t *testing.T) {
	fx := makeFixture(t, 400)
	nodes := fx.newCluster(t, 3, vfs.XFSLike(), localDisk(), 0)
	job := *fx.job
	_, _, err := core.Run(nodes, 3, mpi.Config{Cost: testCost()}, &job, core.Options{TreeMerge: true, MergeFanout: 1}, nil)
	if err == nil || !strings.Contains(err.Error(), "fan-out") {
		t.Errorf("fan-out 1 accepted: %v", err)
	}
}
