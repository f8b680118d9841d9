package mpiblast_test

import (
	"math"
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

func setup(t *testing.T, nprocs int) ([]*vfs.Node, *engine.Job, []*seq.Sequence) {
	t.Helper()
	nodes, err := vfs.Cluster(nprocs, vfs.XFSLike(), nil)
	if err != nil {
		t.Fatal(err)
	}
	seqs, err := workload.SynthesizeDB(workload.DBConfig{
		Kind: seq.Protein, NumSeqs: 60, MeanLen: 120, Seed: 21, FamilySize: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := formatdb.Format(nodes[0].Shared, "nr", seqs, formatdb.Config{
		Kind: seq.Protein, Title: "baseline nr",
	}); err != nil {
		t.Fatal(err)
	}
	queries, err := workload.SampleQueries(seqs, workload.QueryConfig{
		TargetBytes: 300, MeanLen: 90, Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nodes, &engine.Job{
		DBBase:     "nr",
		Queries:    queries,
		Options:    blast.DefaultProteinOptions(),
		OutputPath: "out",
	}, seqs
}

func TestPrepareFragments(t *testing.T) {
	nodes, _, _ := setup(t, 3)
	bases, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(bases) != 5 {
		t.Fatalf("%d fragment bases", len(bases))
	}
	total := 0
	for _, base := range bases {
		db, err := formatdb.Open(nodes[0].Shared, base)
		if err != nil {
			t.Fatalf("fragment %s unreadable: %v", base, err)
		}
		total += db.NumSeqs
	}
	if total != 60 {
		t.Fatalf("fragments cover %d of 60 sequences", total)
	}
	if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "missing", 3); err == nil {
		t.Fatal("missing database accepted")
	}
}

func TestRunRejectsBadConfigs(t *testing.T) {
	nodes, job, _ := setup(t, 4)
	if _, err := mpiblast.Run(nodes, 1, simtime.DefaultCostModel(), job); err == nil {
		t.Fatal("single-rank baseline accepted")
	}
	if _, err := mpiblast.Run(nodes[:2], 4, simtime.DefaultCostModel(), job); err == nil {
		t.Fatal("too few nodes accepted")
	}
	// No fragments prepared yet.
	if _, err := mpiblast.Run(nodes, 4, simtime.DefaultCostModel(), job); err == nil ||
		!strings.Contains(err.Error(), "fragment") {
		t.Fatalf("missing fragments not diagnosed: %v", err)
	}
	bad := *job
	bad.DBBase = "nope"
	if _, err := mpiblast.Run(nodes, 4, simtime.DefaultCostModel(), &bad); err == nil {
		t.Fatal("missing database accepted")
	}
	// Non-finite speeds and slow-downs: NaN used to run at speed 1 silently,
	// +Inf to end as "rank N crashed at t=+Inf" with no crash scheduled.
	if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", 3); err != nil {
		t.Fatal(err)
	}
	// Option values that used to be reinterpreted silently: a negative fetch
	// window ran as the serial fetch, a negative fan-out rode along unused.
	for want, opts := range map[string]mpiblast.Options{
		"negative fetch window":  {FetchWindow: -1},
		"negative merge fan-out": {MergeFanout: -1},
	} {
		cfg := mpi.Config{Cost: simtime.DefaultCostModel()}
		if _, err := mpiblast.RunOpts(nodes, 4, cfg, job, opts); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v", want, err)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		for want, cfg := range map[string]mpi.Config{
			"non-finite speed": {Speeds: []float64{1, v}},
			"non-finite Slow":  {Faults: []mpi.Fault{{Rank: 1, At: 0.1, Kind: mpi.FaultDegrade, Slow: v}}},
		} {
			cfg.Cost = simtime.DefaultCostModel()
			if _, err := mpiblast.RunOpts(nodes, 4, cfg, job, mpiblast.Options{}); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s %g: error %v", want, v, err)
			}
		}
	}
}

func TestGreedySchedulingCoversAllFragments(t *testing.T) {
	// More fragments than workers: the greedy master must get every
	// fragment searched, and the output must equal the sequential oracle.
	nodes, job, _ := setup(t, 3) // 2 workers
	job.Fragments = 7
	if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", 7); err != nil {
		t.Fatal(err)
	}
	res, err := mpiblast.Run(nodes, 3, simtime.DefaultCostModel(), job)
	if err != nil {
		t.Fatal(err)
	}
	got, err := nodes[0].Shared.ReadFile("out")
	if err != nil {
		t.Fatal(err)
	}

	refNodes, refJob, _ := setup(t, 1)
	if err := engine.RunSequential(refNodes[0].Shared, refJob); err != nil {
		t.Fatal(err)
	}
	want, _ := refNodes[0].Shared.ReadFile("out")
	if string(got) != string(want) {
		t.Fatal("greedy multi-fragment run differs from sequential oracle")
	}
	if res.Phase.Copy <= 0 {
		t.Fatal("copy phase missing")
	}
	if res.OutputBytes != int64(len(got)) {
		t.Fatalf("OutputBytes %d != %d", res.OutputBytes, len(got))
	}
}

func TestMoreWorkersThanFragments(t *testing.T) {
	// 5 workers, 2 fragments: three workers must idle gracefully.
	nodes, job, _ := setup(t, 6)
	job.Fragments = 2
	if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := mpiblast.Run(nodes, 6, simtime.DefaultCostModel(), job); err != nil {
		t.Fatal(err)
	}
	out, err := nodes[0].Shared.ReadFile("out")
	if err != nil || len(out) == 0 {
		t.Fatalf("no output: %v", err)
	}
}

func TestCopyUsesLocalDiskWhenAvailable(t *testing.T) {
	local := vfs.LocalDisk()
	nodes, err := vfs.Cluster(3, vfs.XFSLike(), &local)
	if err != nil {
		t.Fatal(err)
	}
	seqs, _ := workload.SynthesizeDB(workload.DBConfig{
		Kind: seq.Protein, NumSeqs: 30, MeanLen: 100, Seed: 23,
	})
	if _, err := formatdb.Format(nodes[0].Shared, "nr", seqs, formatdb.Config{Kind: seq.Protein}); err != nil {
		t.Fatal(err)
	}
	queries, _ := workload.SampleQueries(seqs, workload.QueryConfig{TargetBytes: 150, MeanLen: 60, Seed: 24})
	job := &engine.Job{DBBase: "nr", Queries: queries, Options: blast.DefaultProteinOptions(), OutputPath: "out"}
	if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := mpiblast.Run(nodes, 3, simtime.DefaultCostModel(), job); err != nil {
		t.Fatal(err)
	}
	// Fragment files must have landed on the workers' local disks, not in
	// shared scratch.
	for w := 1; w <= 2; w++ {
		if len(nodes[w].Local.List()) == 0 {
			t.Fatalf("worker %d local disk empty after copy stage", w)
		}
	}
	for _, path := range nodes[0].Shared.List() {
		if strings.HasPrefix(path, "scratch/") {
			t.Fatalf("shared scratch used despite local disks: %s", path)
		}
	}
}

func TestPipelinedFetchPreservesOutputAndHelps(t *testing.T) {
	nodes, job, _ := setup(t, 6)
	if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", 5); err != nil {
		t.Fatal(err)
	}
	serial, err := mpiblast.Run(nodes, 6, simtime.DefaultCostModel(), job)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := nodes[0].Shared.ReadFile("out")

	nodes2, job2, _ := setup(t, 6)
	if _, err := mpiblast.PrepareFragments(nodes2[0].Shared, "nr", 5); err != nil {
		t.Fatal(err)
	}
	pipelined, err := mpiblast.RunOpts(nodes2, 6, mpi.Config{Cost: simtime.DefaultCostModel()},
		job2, mpiblast.Options{FetchWindow: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := nodes2[0].Shared.ReadFile("out")
	if string(got) != string(want) {
		t.Fatal("pipelined fetch changed the output")
	}
	// Pipelining removes round-trip stalls; never slower.
	if pipelined.Phase.Output > serial.Phase.Output*1.01 {
		t.Fatalf("pipelined output (%.3f) worse than serial (%.3f)",
			pipelined.Phase.Output, serial.Phase.Output)
	}
}
