package mpiblast_test

import (
	"bytes"
	"strings"
	"testing"

	"parblast/internal/blast"
	"parblast/internal/engine"
	"parblast/internal/formatdb"
	"parblast/internal/mpi"
	"parblast/internal/mpiblast"
	"parblast/internal/seq"
	"parblast/internal/simtime"
	"parblast/internal/vfs"
	"parblast/internal/workload"
)

func treeFixtureJob(t *testing.T, queryBytes int) *engine.Job {
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
	return &engine.Job{
		DBBase:     "nr",
		Queries:    queries,
		Options:    blast.DefaultProteinOptions(),
		OutputPath: "results.out",
	}
}

// treeCluster formats the DB and fragments onto a fresh cluster.
func treeCluster(t *testing.T, job *engine.Job, nprocs, nFrags int) []*vfs.Node {
	t.Helper()
	local := vfs.LocalDisk()
	nodes, err := vfs.Cluster(nprocs, vfs.XFSLike(), &local)
	if err != nil {
		t.Fatal(err)
	}
	seqs, err := workload.SynthesizeDB(workload.DBConfig{
		Kind: seq.Protein, NumSeqs: 60, MeanLen: 150, Seed: 101,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := formatdb.Format(nodes[0].Shared, "nr", seqs, formatdb.Config{
		Title: "synthetic nr", Kind: seq.Protein,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", nFrags); err != nil {
		t.Fatal(err)
	}
	return nodes
}

func runTree(t *testing.T, job *engine.Job, nprocs, nFrags int, cfg mpi.Config, opts mpiblast.Options) (engine.RunResult, []byte, error) {
	t.Helper()
	nodes := treeCluster(t, job, nprocs, nFrags)
	j := *job
	j.Fragments = nFrags
	res, _, err := mpiblast.Run(nodes, nprocs, cfg, &j, opts, nil)
	if err != nil {
		return res, nil, err
	}
	out, rerr := nodes[0].Shared.ReadFile(job.OutputPath)
	if rerr != nil {
		t.Fatal(rerr)
	}
	return res, out, nil
}

// TestBaselineTreeMergeByteIdentical: the baseline with the hierarchical
// merge must reproduce the flat baseline byte for byte at every fan-out.
func TestBaselineTreeMergeByteIdentical(t *testing.T) {
	const nprocs, nFrags = 6, 5
	job := treeFixtureJob(t, 1200)
	cost := simtime.DefaultCostModel()
	_, flatOut, err := runTree(t, job, nprocs, nFrags, mpi.Config{Cost: cost}, mpiblast.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(flatOut) == 0 {
		t.Fatal("flat baseline produced empty output")
	}
	for _, fanout := range []int{2, 4, 8} {
		_, treeOut, err := runTree(t, job, nprocs, nFrags, mpi.Config{Cost: cost},
			mpiblast.Options{TreeMerge: true, MergeFanout: fanout})
		if err != nil {
			t.Fatalf("fanout %d: %v", fanout, err)
		}
		if !bytes.Equal(treeOut, flatOut) {
			t.Errorf("fanout %d: tree-merge output differs from flat baseline", fanout)
		}
	}
}

// TestBaselineTreeMergeCrashMidSearch: a worker crash during the search
// phase must recover (fragments re-searched by survivors) and still match
// the flat baseline's output exactly, deterministically.
func TestBaselineTreeMergeCrashMidSearch(t *testing.T) {
	const nprocs, nFrags = 5, 8
	job := treeFixtureJob(t, 1600)
	cost := simtime.DefaultCostModel()
	opts := mpiblast.Options{TreeMerge: true, MergeFanout: 2}
	free, freeOut, err := runTree(t, job, nprocs, nFrags, mpi.Config{Cost: cost}, opts)
	if err != nil {
		t.Fatal(err)
	}
	at := 0.5 * (free.Wall - free.Phase.Output)
	faults := []mpi.Fault{{Rank: nprocs - 1, At: at}}
	crashed, out1, err := runTree(t, job, nprocs, nFrags, mpi.Config{Cost: cost, Faults: faults}, opts)
	if err != nil {
		t.Fatalf("crashed run failed: %v", err)
	}
	if !bytes.Equal(out1, freeOut) {
		t.Error("crashed tree-merge output differs from fault-free output")
	}
	if crashed.Wall <= free.Wall {
		t.Errorf("crashed wall %.3f not above fault-free %.3f", crashed.Wall, free.Wall)
	}
	crashed2, out2, err := runTree(t, job, nprocs, nFrags, mpi.Config{Cost: cost, Faults: faults}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out1, out2) || crashed2.Wall != crashed.Wall {
		t.Errorf("recovery nondeterministic (wall %.6f vs %.6f)", crashed.Wall, crashed2.Wall)
	}
}

// TestBaselineTreeMergeCrashDuringMerge: a worker dying in the merge or
// fetch window must surface a clean error, not a hang.
func TestBaselineTreeMergeCrashDuringMerge(t *testing.T) {
	const nprocs, nFrags = 5, 4
	job := treeFixtureJob(t, 1600)
	cost := simtime.DefaultCostModel()
	opts := mpiblast.Options{TreeMerge: true, MergeFanout: 2}
	free, _, err := runTree(t, job, nprocs, nFrags, mpi.Config{Cost: cost}, opts)
	if err != nil {
		t.Fatal(err)
	}
	at := free.Wall - 0.9*free.Phase.Output
	faults := []mpi.Fault{{Rank: nprocs - 1, At: at}}
	_, _, err = runTree(t, job, nprocs, nFrags, mpi.Config{Cost: cost, Faults: faults}, opts)
	if err == nil {
		t.Fatal("crash inside the merge window reported no error")
	}
	if !strings.Contains(err.Error(), "crash") {
		t.Errorf("unexpected error for merge-window crash: %v", err)
	}
}
