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
	if !strings.Contains(err.Error(), "crash") {
		t.Errorf("unexpected error for merge-window crash: %v", err)
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
