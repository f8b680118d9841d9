package mpiblast_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"parblast/internal/blast"
	"parblast/internal/engine"
	"parblast/internal/formatdb"
	"parblast/internal/mpi"
	"parblast/internal/mpiblast"
	"parblast/internal/seq"
	"parblast/internal/simtime"
	"parblast/internal/trace"
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
	// Early in the output window the crash lands in the fold, later in the
	// residue fetches that follow it.
	for _, c := range []struct {
		frac float64
		want string
	}{
		{0.99, "worker crashed during the hierarchical merge; recovery only covers the search phase"},
		{0.9, "crashed during the output phase; recovery only covers the search phase"},
	} {
		at := free.Wall - c.frac*free.Phase.Output
		faults := []mpi.Fault{{Rank: nprocs - 1, At: at}}
		_, _, err = runTree(t, job, nprocs, nFrags, mpi.Config{Cost: cost, Faults: faults}, opts)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("crash at %g of the output window: got %v, want the engine's error %q", c.frac, err, c.want)
		}
	}
}

// TestStaleSubmissionDropped: a worker that crashes while its last result
// submission is on the wire — sent, not yet read — is dead when the flat
// master reads it, so the master drops the message (the Failed check of
// assigner.recv), detects the crash and has the fragment searched again. A
// master that counted it would release the survivors with a result only the
// dead worker can serve, and never finish. The crash falls inside the
// submission's NIC occupancy, read off a traced fault-free run: the send
// charges the occupancy after its crash check, so the crash fires at the
// worker's next operation, before the message arrives.
func TestStaleSubmissionDropped(t *testing.T) {
	const nprocs, nFrags = 4, 6
	job := treeFixtureJob(t, 1200)
	cost := simtime.DefaultCostModel()
	col := trace.NewCollector()
	free, freeOut, err := runTree(t, job, nprocs, nFrags, mpi.Config{Cost: cost, Trace: col}, mpiblast.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var last trace.Flow
	for _, f := range col.Flows() {
		if f.Dst == 0 && f.Op == mpiblast.ResultsFlowOp && f.RecvAt > last.RecvAt {
			last = f
		}
	}
	if last.Bytes == 0 {
		t.Fatal("no result submission was traced")
	}
	faults := []mpi.Fault{{Rank: last.Src, At: last.SendAt - float64(last.Bytes)/cost.NetBandwidth/2}}
	type outcome struct {
		res engine.RunResult
		out []byte
		err error
	}
	nodes := treeCluster(t, job, nprocs, nFrags)
	j := *job
	j.Fragments = nFrags
	done := make(chan outcome, 1)
	go func() {
		res, _, err := mpiblast.Run(nodes, nprocs, mpi.Config{Cost: cost, Faults: faults}, &j, mpiblast.Options{}, nil)
		out, _ := nodes[0].Shared.ReadFile(job.OutputPath)
		done <- outcome{res, out, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("crash of rank %d inside its last submission: %v", last.Src, o.err)
		}
		if !bytes.Equal(o.out, freeOut) {
			t.Error("recovered output differs from the fault-free output")
		}
		if o.res.Wall <= free.Wall {
			t.Errorf("recovered wall %g not above the fault-free %g", o.res.Wall, free.Wall)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("crash inside the last submission: the run is still going after 20 s")
	}
}
