package core_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"parblast/internal/core"
	"parblast/internal/engine"
	"parblast/internal/mpi"
	"parblast/internal/mpiblast"
	"parblast/internal/trace"
	"parblast/internal/vfs"
	"parblast/internal/workload"
)

// TestTracingZeroVirtualTimeCost is the observability contract: setting
// mpi.Config.Trace must not move a single virtual clock. For both engines,
// one-shot (flat and tree merge) and serving, fault-free and with one worker
// crashing mid-search (mpiBLAST rejects fault schedules in serve mode),
// output bytes, wall time, every rank's finish time, the protocol and
// collective traffic and every query latency are identical with the
// collector set and nil.
func TestTracingZeroVirtualTimeCost(t *testing.T) {
	const nprocs = 4
	fx := makeFixture(t, 2000)
	batches := serveArrivals(t, fx, workload.ArrivalConfig{Rate: 0.2, BatchMean: 2, Seed: 31})

	type outcome struct {
		res   engine.RunResult
		stats engine.ServeStats
		out   []byte
	}
	stand := func(fragments bool) []*vfs.Node {
		nodes := fx.newCluster(t, nprocs, vfs.XFSLike(), localDisk(), 0)
		if fragments {
			if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", nprocs-1); err != nil {
				t.Fatal(err)
			}
		}
		return nodes
	}
	finish := func(nodes []*vfs.Node, o outcome, err error) (outcome, error) {
		if err != nil {
			return o, err
		}
		o.out, err = nodes[0].Shared.ReadFile(fx.job.OutputPath)
		return o, err
	}
	modes := []struct {
		name      string
		serve     bool
		crashable bool
		run       func(cfg mpi.Config) (outcome, error)
	}{
		{"pio/one-shot", false, true, func(cfg mpi.Config) (o outcome, err error) {
			nodes, job := stand(false), *fx.job
			o.res, _, err = core.Run(nodes, nprocs, cfg, &job, core.Options{QueryBatch: 2}, nil)
			return finish(nodes, o, err)
		}},
		{"pio/serve", true, true, func(cfg mpi.Config) (o outcome, err error) {
			nodes, job := stand(false), *fx.job
			o.res, o.stats, err = core.Run(nodes, nprocs, cfg, &job, core.Options{}, &engine.Stream{Batches: batches})
			return finish(nodes, o, err)
		}},
		{"pio/tree", false, true, func(cfg mpi.Config) (o outcome, err error) {
			nodes, job := stand(false), *fx.job
			o.res, _, err = core.Run(nodes, nprocs, cfg, &job, core.Options{QueryBatch: 2, TreeMerge: true}, nil)
			return finish(nodes, o, err)
		}},
		{"mpi/one-shot", false, true, func(cfg mpi.Config) (o outcome, err error) {
			nodes, job := stand(true), *fx.job
			o.res, _, err = mpiblast.Run(nodes, nprocs, cfg, &job, mpiblast.Options{}, nil)
			return finish(nodes, o, err)
		}},
		{"mpi/tree", false, true, func(cfg mpi.Config) (o outcome, err error) {
			nodes, job := stand(true), *fx.job
			o.res, _, err = mpiblast.Run(nodes, nprocs, cfg, &job, mpiblast.Options{TreeMerge: true}, nil)
			return finish(nodes, o, err)
		}},
		{"mpi/serve", true, false, func(cfg mpi.Config) (o outcome, err error) {
			nodes, job := stand(true), *fx.job
			o.res, o.stats, err = mpiblast.Run(nodes, nprocs, cfg, &job, mpiblast.Options{}, &engine.Stream{Batches: batches})
			return finish(nodes, o, err)
		}},
	}
	same := func(name string, plain, traced outcome) {
		t.Helper()
		if !bytes.Equal(plain.out, traced.out) {
			t.Fatalf("%s: tracing changed output bytes", name)
		}
		if plain.res.Wall != traced.res.Wall {
			t.Fatalf("%s: tracing changed wall: %g vs %g", name, plain.res.Wall, traced.res.Wall)
		}
		for rank := range plain.res.Clocks {
			if a, b := plain.res.Clocks[rank].Now(), traced.res.Clocks[rank].Now(); a != b {
				t.Fatalf("%s: rank %d finish moved: %g vs %g", name, rank, a, b)
			}
		}
		if a, b := plain.res, traced.res; a.CommBytes != b.CommBytes || a.CollectiveBytes != b.CollectiveBytes || a.CommMessages != b.CommMessages {
			t.Fatalf("%s: tracing changed traffic: %d/%d/%d vs %d/%d/%d protocol/collective bytes/messages",
				name, a.CommBytes, a.CollectiveBytes, a.CommMessages, b.CommBytes, b.CollectiveBytes, b.CommMessages)
		}
		if !reflect.DeepEqual(plain.res.QueryLatencies, traced.res.QueryLatencies) {
			t.Fatalf("%s: tracing changed query latencies:\n%v\n%v",
				name, plain.res.QueryLatencies, traced.res.QueryLatencies)
		}
	}
	for _, m := range modes {
		free, err := m.run(mpi.Config{Cost: testCost()})
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		col := trace.NewCollector()
		traced, err := m.run(mpi.Config{Cost: testCost(), Trace: col})
		if err != nil {
			t.Fatalf("%s traced: %v", m.name, err)
		}
		same(m.name, free, traced)
		if len(col.Flows()) == 0 {
			t.Fatalf("%s: traced run recorded no flows", m.name)
		}
		if !m.crashable {
			continue
		}

		// Aim the crash of the last worker at the search window — the whole
		// pre-output run, or the middle batch of the stream — and take the
		// first probe that does not land in an (unrecoverable) output window.
		from, to := 0.0, free.res.Wall-free.res.Phase.Output
		if m.serve {
			mid := len(free.stats.BatchStart) / 2
			from, to = free.stats.BatchStart[mid], free.stats.BatchDone[mid]
		}
		name, hit := m.name+"/crash", false
		for _, frac := range []float64{0.5, 0.3, 0.7, 0.1} {
			faults := []mpi.Fault{{Rank: nprocs - 1, At: from + float64(frac*(to-from))}}
			crashed, err := m.run(mpi.Config{Cost: testCost(), Faults: faults})
			if err != nil {
				if strings.Contains(err.Error(), "output phase") {
					continue
				}
				t.Fatalf("%s at frac %g: %v", name, frac, err)
			}
			col := trace.NewCollector()
			traced, err := m.run(mpi.Config{Cost: testCost(), Faults: faults, Trace: col})
			if err != nil {
				t.Fatalf("%s traced: %v", name, err)
			}
			same(name, crashed, traced)
			if evs := col.Events(nprocs - 1); len(evs) != 1 || evs[0].Name != "crash" {
				t.Fatalf("%s: victim's timeline carries %v, want one crash mark", name, evs)
			}
			hit = true
			break
		}
		if !hit {
			t.Fatalf("%s: every probed crash time landed in an output window", name)
		}
	}
}

// TestQueryLatenciesDeterministic: repeated identical runs and runs with
// different SearchThreads settings yield bit-identical per-query latencies
// (master-clock accounting is independent of host parallelism).
func TestQueryLatenciesDeterministic(t *testing.T) {
	fx := makeFixture(t, 2000)
	opts := core.Options{QueryBatch: 2}

	first, _ := runPio(t, fx, 4, mpi.Config{Cost: testCost()}, opts)
	second, _ := runPio(t, fx, 4, mpi.Config{Cost: testCost()}, opts)
	if !reflect.DeepEqual(first.QueryLatencies, second.QueryLatencies) {
		t.Fatalf("latencies differ across identical runs:\n%v\n%v",
			first.QueryLatencies, second.QueryLatencies)
	}

	threaded := makeFixture(t, 2000)
	threaded.job.Options.SearchThreads = 4
	third, _ := runPio(t, threaded, 4, mpi.Config{Cost: testCost()}, opts)
	if !reflect.DeepEqual(first.QueryLatencies, third.QueryLatencies) {
		t.Fatalf("latencies differ across SearchThreads:\n%v\n%v",
			first.QueryLatencies, third.QueryLatencies)
	}

	if len(first.QueryLatencies) != len(fx.queries) {
		t.Fatalf("%d latencies for %d queries", len(first.QueryLatencies), len(fx.queries))
	}
	for q, lat := range first.QueryLatencies {
		if lat <= 0 {
			t.Fatalf("query %d latency %g not positive", q, lat)
		}
	}
}

// TestMpiblastQueryLatencies: the baseline engine records latencies too, in
// both merge protocols, and the serialized flat merge makes them
// non-decreasing in query order (each query's output waits on all earlier
// ones).
func TestMpiblastQueryLatencies(t *testing.T) {
	for _, tree := range []bool{false, true} {
		fx := makeFixture(t, 2000)
		nodes := fx.newCluster(t, 4, vfs.NFSLike(), localDisk(), 0)
		if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", 3); err != nil {
			t.Fatal(err)
		}
		job := *fx.job
		res, _, err := mpiblast.Run(nodes, 4, mpi.Config{Cost: testCost()}, &job, mpiblast.Options{TreeMerge: tree}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.QueryLatencies) != len(fx.queries) {
			t.Fatalf("tree=%v: %d latencies for %d queries",
				tree, len(res.QueryLatencies), len(fx.queries))
		}
		for q := 1; q < len(res.QueryLatencies); q++ {
			if res.QueryLatencies[q] < res.QueryLatencies[q-1] {
				t.Fatalf("tree=%v: serialized output latencies decreased at query %d: %v",
					tree, q, res.QueryLatencies)
			}
		}
	}
}
