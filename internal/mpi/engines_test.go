package mpi_test

import (
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

// engineRun is one configuration of internal/core's TestClockFingerprint
// table: an engine, its options, a crash placement and an arrival stream.
type engineRun struct {
	name   string
	pio    *core.Options
	mpi    *mpiblast.Options
	volMax int64
	// crash places a crash of the last worker: halfway through a fault-free
	// one-shot run's pre-output window, or at several points of a served
	// stream's middle batch.
	crash bool
	// stream, with admitCap, makes the run a served one.
	stream   []workload.Batch
	admitCap int
}

// TestEngineGrantsMatchScan holds every grant of the clock fingerprint's
// configurations — both engines, one-shot and served, fault-free and with a
// crash — to the scan oracle (scan_test.go). The fingerprint pins what those
// runs compute; this pins that the heap chose every grant the scan would have.
func TestEngineGrantsMatchScan(t *testing.T) {
	seqs, err := workload.SynthesizeDB(workload.DBConfig{Kind: seq.Protein, NumSeqs: 60, MeanLen: 150, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := workload.SampleQueries(seqs, workload.QueryConfig{TargetBytes: 2000, MeanLen: 100, MutationRate: 0.05, Seed: 202})
	if err != nil {
		t.Fatal(err)
	}
	arrivals := func(cfg workload.ArrivalConfig) []workload.Batch {
		b, err := workload.Arrivals(queries, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	pio := func(o core.Options) *core.Options { return &o }
	mpb := func(o mpiblast.Options) *mpiblast.Options { return &o }
	batches := arrivals(workload.ArrivalConfig{Rate: 4, BatchMean: 2, BatchDist: workload.BatchUniform, Seed: 7})
	burst := arrivals(workload.ArrivalConfig{Rate: 100, Burst: 4, BatchMean: 2, Seed: 23})
	trickle := arrivals(workload.ArrivalConfig{Rate: 0.2, BatchMean: 2, Seed: 31})
	runs := []engineRun{
		{name: "pio/default", pio: pio(core.Options{})},
		{name: "pio/tree", pio: pio(core.Options{TreeMerge: true, MergeFanout: 2})},
		{name: "pio/collective", pio: pio(core.Options{CollectiveRead: true}), volMax: 3000},
		{name: "pio/prefetch2", pio: pio(core.Options{PrefetchDepth: 2})},
		{name: "pio/dynamic", pio: pio(core.Options{DynamicAssignment: true})},
		{name: "pio/dynamic+prefetch", pio: pio(core.Options{DynamicAssignment: true, PrefetchDepth: 1})},
		{name: "pio/batch3", pio: pio(core.Options{QueryBatch: 3})},
		{name: "pio/membudget", pio: pio(core.Options{MemoryBudgetBytes: 6 << 10})},
		{name: "pio/earlyprune", pio: pio(core.Options{EarlyPrune: true})},
		{name: "pio/independent-output", pio: pio(core.Options{IndependentOutput: true})},
		{name: "pio/forced-ft", pio: pio(core.Options{FaultTolerant: true})},
		{name: "pio/tree+collective+batch", pio: pio(core.Options{TreeMerge: true, CollectiveRead: true, QueryBatch: 4, EarlyPrune: true}), volMax: 3000},
		{name: "pio/crash", pio: pio(core.Options{FaultTolerant: true}), crash: true},
		{name: "pio/crash+prefetch2", pio: pio(core.Options{FaultTolerant: true, PrefetchDepth: 2}), crash: true},
		{name: "pio/crash+collective", pio: pio(core.Options{FaultTolerant: true, CollectiveRead: true}), crash: true},
		{name: "pio/crash+dynamic", pio: pio(core.Options{FaultTolerant: true, DynamicAssignment: true}), crash: true},
		{name: "pio/crash+dynamic+prefetch", pio: pio(core.Options{FaultTolerant: true, DynamicAssignment: true, PrefetchDepth: 1}), crash: true},
		{name: "pio/crash+tree", pio: pio(core.Options{FaultTolerant: true, TreeMerge: true, MergeFanout: 2}), crash: true},
		{name: "mpi/flat", mpi: mpb(mpiblast.Options{})},
		{name: "mpi/tree", mpi: mpb(mpiblast.Options{TreeMerge: true, MergeFanout: 2})},
		{name: "mpi/fetchwindow4", mpi: mpb(mpiblast.Options{FetchWindow: 4})},
		{name: "mpi/tree+fetchwindow4", mpi: mpb(mpiblast.Options{TreeMerge: true, FetchWindow: 4})},
		{name: "mpi/crash", mpi: mpb(mpiblast.Options{}), crash: true},
		{name: "mpi/crash+tree", mpi: mpb(mpiblast.Options{TreeMerge: true}), crash: true},
		{name: "serve/pio/flat", pio: pio(core.Options{}), stream: batches},
		{name: "serve/pio/tree", pio: pio(core.Options{TreeMerge: true, MergeFanout: 2}), stream: batches},
		{name: "serve/pio/collective", pio: pio(core.Options{CollectiveRead: true}), stream: batches},
		{name: "serve/pio/prefetch2", pio: pio(core.Options{PrefetchDepth: 2}), stream: batches},
		{name: "serve/pio/earlyprune+independent", pio: pio(core.Options{EarlyPrune: true, IndependentOutput: true}), stream: batches},
		{name: "serve/pio/forced-ft", pio: pio(core.Options{FaultTolerant: true}), stream: batches},
		{name: "serve/pio/shed", pio: pio(core.Options{}), stream: burst, admitCap: 1},
		{name: "serve/pio/crash", pio: pio(core.Options{FaultTolerant: true}), stream: trickle, crash: true},
		{name: "serve/pio/crash+prefetch2+tree", pio: pio(core.Options{FaultTolerant: true, PrefetchDepth: 2, TreeMerge: true}), stream: trickle, crash: true},
		{name: "serve/mpi/flat", mpi: mpb(mpiblast.Options{FetchWindow: 2}), stream: batches},
		{name: "serve/mpi/tree", mpi: mpb(mpiblast.Options{TreeMerge: true, FetchWindow: 2}), stream: batches},
	}
	for _, c := range runs {
		t.Run(c.name, func(t *testing.T) {
			grants := 0
			res, stats, err := c.run(t, seqs, queries, nil, &grants)
			if err != nil {
				t.Fatal(err)
			}
			if c.crash {
				// Crashing runs may fail by design (a crash in an output
				// window); every grant they make is still checked.
				for _, at := range c.crashTimes(res, stats) {
					faults := []mpi.Fault{{Rank: c.procs() - 1, At: at}}
					c.run(t, seqs, queries, faults, &grants)
				}
			}
			if grants == 0 {
				t.Fatal("no grant was checked")
			}
		})
	}
}

// procs is the world size of the fingerprint's runs of the engine.
func (c engineRun) procs() int {
	if c.pio != nil {
		return 5
	}
	return 4
}

// crashTimes places the crashes the fingerprint places, given the
// fault-free run's result.
func (c engineRun) crashTimes(free engine.RunResult, stats engine.ServeStats) []float64 {
	if c.stream == nil {
		return []float64{0.5 * (free.Wall - free.Phase.Output)}
	}
	mid := len(stats.BatchStart) / 2
	var at []float64
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.7} {
		at = append(at, stats.BatchStart[mid]+frac*(stats.BatchDone[mid]-stats.BatchStart[mid]))
	}
	return at
}

// run runs the configuration once on a fresh cluster, every grant checked.
func (c engineRun) run(t *testing.T, seqs, queries []*seq.Sequence, faults []mpi.Fault, grants *int) (engine.RunResult, engine.ServeStats, error) {
	t.Helper()
	local := vfs.LocalDisk()
	nodes, err := vfs.Cluster(c.procs(), vfs.XFSLike(), &local)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := formatdb.Format(nodes[0].Shared, "nr", seqs, formatdb.Config{
		Title: "synthetic nr", Kind: seq.Protein, VolumeMaxResidues: c.volMax,
	}); err != nil {
		t.Fatal(err)
	}
	job := engine.Job{DBBase: "nr", Queries: queries, Options: blast.DefaultProteinOptions(), OutputPath: "results.out"}
	cfg := mpi.CheckGrants(t, mpi.Config{Cost: simtime.DefaultCostModel(), Faults: faults, Metrics: metrics.NewRegistry()}, grants)
	var stream *engine.Stream
	if c.stream != nil {
		stream = &engine.Stream{Batches: c.stream, AdmitCap: c.admitCap}
	}
	if c.pio != nil {
		job.Fragments = 9
		return core.Run(nodes, c.procs(), cfg, &job, *c.pio, stream)
	}
	job.Fragments = 6
	if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", job.Fragments); err != nil {
		t.Fatal(err)
	}
	return mpiblast.Run(nodes, c.procs(), cfg, &job, *c.mpi, stream)
}
