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
	if _, _, err := mpiblast.Run(nodes, 1, mpi.Config{Cost: simtime.DefaultCostModel()}, job, mpiblast.Options{}, nil); err == nil {
		t.Fatal("single-rank baseline accepted")
	}
	if _, _, err := mpiblast.Run(nodes[:2], 4, mpi.Config{Cost: simtime.DefaultCostModel()}, job, mpiblast.Options{}, nil); err == nil {
		t.Fatal("too few nodes accepted")
	}
	// No fragments prepared yet.
	if _, _, err := mpiblast.Run(nodes, 4, mpi.Config{Cost: simtime.DefaultCostModel()}, job, mpiblast.Options{}, nil); err == nil ||
		!strings.Contains(err.Error(), "fragment") {
		t.Fatalf("missing fragments not diagnosed: %v", err)
	}
	bad := *job
	bad.DBBase = "nope"
	if _, _, err := mpiblast.Run(nodes, 4, mpi.Config{Cost: simtime.DefaultCostModel()}, &bad, mpiblast.Options{}, nil); err == nil {
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
		if _, _, err := mpiblast.Run(nodes, 4, cfg, job, opts, nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v", want, err)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		cfg := mpi.Config{Cost: simtime.DefaultCostModel(), Speeds: []float64{1, v}}
		if _, _, err := mpiblast.Run(nodes, 4, cfg, job, mpiblast.Options{}, nil); err == nil || !strings.Contains(err.Error(), "non-finite speed") {
			t.Errorf("non-finite speed %g: error %v", v, err)
		}
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
	if _, _, err := mpiblast.Run(nodes, 3, mpi.Config{Cost: simtime.DefaultCostModel()}, job, mpiblast.Options{}, nil); err != nil {
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

// baselineRow is one baseline run on setup's fixture, compared byte for byte
// with the sequential report; check sees the results of the test's rows run
// before it.
type baselineRow struct {
	name             string
	procs, fragments int
	opts             mpiblast.Options
	check            func(t *testing.T, res engine.RunResult, ran map[string]engine.RunResult)
}

// baselineRows is setup's fixture's table, each row named after its test,
// then its case.
var baselineRows = []baselineRow{
	// More fragments than workers: the greedy master gets every fragment
	// searched.
	{"TestGreedySchedulingCoversAllFragments", 3, 7, mpiblast.Options{}, func(t *testing.T, res engine.RunResult, _ map[string]engine.RunResult) {
		if res.Phase.Copy <= 0 {
			t.Fatal("copy phase missing")
		}
	}},
	// 5 workers, 2 fragments: three workers idle gracefully.
	{"TestMoreWorkersThanFragments", 6, 2, mpiblast.Options{}, nil},
	{"TestPipelinedFetchPreservesOutputAndHelps/serial", 6, 5, mpiblast.Options{}, nil},
	// Pipelining removes round-trip stalls; never slower.
	{"TestPipelinedFetchPreservesOutputAndHelps/window=8", 6, 5, mpiblast.Options{FetchWindow: 8}, func(t *testing.T, res engine.RunResult, ran map[string]engine.RunResult) {
		if serial := ran["TestPipelinedFetchPreservesOutputAndHelps/serial"]; res.Phase.Output > serial.Phase.Output*1.01 {
			t.Fatalf("pipelined output (%.3f) worse than serial (%.3f)", res.Phase.Output, serial.Phase.Output)
		}
	}},
}

// baselineOracle is setup's sequential report, built by the first test that
// needs it.
var baselineOracle []byte

// runBaselineRows runs the rows named after t's test against setup's
// sequential report.
func runBaselineRows(t *testing.T) {
	if baselineOracle == nil {
		refNodes, refJob, _ := setup(t, 1)
		if err := engine.RunSequential(refNodes[0].Shared, refJob); err != nil {
			t.Fatal(err)
		}
		out, err := refNodes[0].Shared.ReadFile("out")
		if err != nil || len(out) == 0 {
			t.Fatalf("sequential output empty: %v", err)
		}
		baselineOracle = out
	}
	ran := map[string]engine.RunResult{}
	for _, row := range baselineRows {
		if test, _, _ := strings.Cut(row.name, "/"); test != t.Name() {
			continue
		}
		nodes, job, _ := setup(t, row.procs)
		job.Fragments = row.fragments
		if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", row.fragments); err != nil {
			t.Fatal(err)
		}
		res, _, err := mpiblast.Run(nodes, row.procs, mpi.Config{Cost: simtime.DefaultCostModel()}, job, row.opts, nil)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		ran[row.name] = res
		got, err := nodes[0].Shared.ReadFile("out")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(baselineOracle) {
			t.Fatalf("%s: output differs from the sequential oracle", row.name)
		}
		if res.OutputBytes != int64(len(got)) {
			t.Fatalf("%s: OutputBytes %d != %d", row.name, res.OutputBytes, len(got))
		}
		if row.check != nil {
			row.check(t, res, ran)
		}
	}
	if len(ran) == 0 {
		t.Fatal("no row is named after this test")
	}
}

func TestGreedySchedulingCoversAllFragments(t *testing.T)    { runBaselineRows(t) }
func TestMoreWorkersThanFragments(t *testing.T)              { runBaselineRows(t) }
func TestPipelinedFetchPreservesOutputAndHelps(t *testing.T) { runBaselineRows(t) }
