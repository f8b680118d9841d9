package core_test

import (
	"bytes"
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
	seqNodes := fx.newCluster(t, 1, vfs.RAMDisk(), nil, 0)
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

// TestTreeMergeByteIdentical: the hierarchical merge must reproduce the
// sequential oracle byte for byte at every fan-out, alone and combined
// with the collective-read and prefetch input paths.
func TestTreeMergeByteIdentical(t *testing.T) {
	const nprocs = 6
	fx := makeFixture(t, 1200)
	oracle := oracleOutput(t, fx)
	variants := []struct {
		name string
		opts core.Options
	}{
		{"plain", core.Options{}},
		{"collective-read", core.Options{CollectiveRead: true}},
		{"prefetch", core.Options{PrefetchDepth: 2}},
	}
	for _, v := range variants {
		for _, fanout := range []int{2, 4, 8} {
			opts := v.opts
			opts.TreeMerge = true
			opts.MergeFanout = fanout
			_, out := runPio(t, fx, nprocs, mpi.Config{Cost: testCost()}, opts)
			if !bytes.Equal(out, oracle) {
				t.Errorf("%s fanout=%d: output differs from oracle at byte %d",
					v.name, fanout, firstDiff(out, oracle))
			}
		}
	}
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

// TestTreeMergeCrashMidSearchByteIdentical: a worker crash during the
// search phase must recover to oracle-identical output with the tree
// merge enabled (the merge then runs over the survivor membership), and
// the recovery must be deterministic.
func TestTreeMergeCrashMidSearchByteIdentical(t *testing.T) {
	const nprocs = 5
	fx := makeFixture(t, 1600)
	oracle := oracleOutput(t, fx)
	opts := core.Options{TreeMerge: true, MergeFanout: 2, FaultTolerant: true}
	free, freeOut := runPio(t, fx, nprocs, mpi.Config{Cost: testCost()}, opts)
	if !bytes.Equal(freeOut, oracle) {
		t.Fatalf("fault-free tree-merge output differs from oracle at byte %d", firstDiff(freeOut, oracle))
	}
	at := 0.5 * (free.Wall - free.Phase.Output)
	faults := []mpi.Fault{{Rank: nprocs - 1, At: at}}
	crashed, out1 := runPio(t, fx, nprocs, mpi.Config{Cost: testCost(), Faults: faults}, opts)
	if !bytes.Equal(out1, oracle) {
		t.Errorf("crashed tree-merge output differs from oracle at byte %d", firstDiff(out1, oracle))
	}
	crashed2, out2 := runPio(t, fx, nprocs, mpi.Config{Cost: testCost(), Faults: faults}, opts)
	if !bytes.Equal(out1, out2) || crashed2.Wall != crashed.Wall {
		t.Errorf("tree-merge recovery nondeterministic (wall %.6f vs %.6f)", crashed.Wall, crashed2.Wall)
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
