package core_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"parblast/internal/core"
	"parblast/internal/engine"
	"parblast/internal/metrics"
	"parblast/internal/mpi"
	"parblast/internal/mpiblast"
	"parblast/internal/simtime"
	"parblast/internal/vfs"
	"parblast/internal/workload"
)

// The other suites pin run-to-run determinism and byte-identity to the
// sequential oracle; none of them pins the virtual clocks from one COMMIT
// to the next. TestClockFingerprint does: every engine × protocol variant
// below is reduced to its per-rank clocks, phase buckets, traffic totals,
// telemetry counters, latencies, and output hash, and compared to a golden
// generated once from the code before the engine loops were merged. A
// refactor that claims "the wire protocol is frozen" must leave this file
// byte-identical; a change that means to move a clock regenerates it with
// -update-fingerprint and argues the model change in its own PR.
var updateFingerprint = flag.Bool("update-fingerprint", false, "rewrite testdata/clock_fingerprint.golden")

const fingerprintGolden = "testdata/clock_fingerprint.golden"

var fpPhases = []simtime.Phase{
	simtime.PhaseCopy, simtime.PhaseInput, simtime.PhaseSearch,
	simtime.PhaseOutput, simtime.PhaseOther, simtime.PhaseIdle,
}

// fpSkippedSeries are left out of the fingerprint, with every host-side
// series (metrics.HostSide: what the host built once per world and shared,
// searches off the scheduler token, the scheduler's own grants), which
// describes the simulator, not the modelled cluster. The merged baseline
// output stage records the master's final selection exactly where a merge
// cost is charged, which moves the two hsps series (and nothing else) on
// the mpiBLAST tree paths.
var fpSkippedSeries = map[string]bool{
	"blast.hsps_kept": true, "blast.hsps_dropped": true,
}

// fpOrderSeries is the suffix of each file system's order-inversion counter.
// It stays out of the blob because it is not a measurement but an invariant:
// every variant, crashes included, must end with it at zero on every file
// system — storage accesses reached each channel pool in virtual-time order.
const fpOrderSeries = ".order_inversions"

func fpCheckOrder(t *testing.T, name string, reg *metrics.Registry) {
	t.Helper()
	found := false
	for _, c := range reg.Snapshot().Counters {
		if strings.HasSuffix(c.Name, fpOrderSeries) {
			found = true
			if c.Value != 0 {
				t.Errorf("%s: %s = %d, want 0", name, c.Name, c.Value)
			}
		}
	}
	if !found {
		t.Errorf("%s: no %s series recorded", name, fpOrderSeries)
	}
}

// fpCluster is fixture.newCluster with the registry attached to every file
// system, so vfs and mpiio counters land in the fingerprint too.
func fpCluster(t *testing.T, fx *fixture, nprocs int, volMax int64, reg *metrics.Registry) []*vfs.Node {
	t.Helper()
	nodes := fx.newCluster(t, nprocs, vfs.XFSLike(), localDisk(), volMax)
	nodes[0].Shared.SetMetrics(reg)
	for _, n := range nodes {
		if n.Local != nil {
			n.Local.SetMetrics(reg)
		}
	}
	return nodes
}

// fpRun is one fingerprinted run's observable state.
type fpRun struct {
	res   engine.RunResult
	stats *engine.ServeStats
	out   []byte
	reg   *metrics.Registry
	note  string
}

func (r fpRun) render(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", name)
	if r.note != "" {
		fmt.Fprintf(&b, "note %s\n", r.note)
	}
	fmt.Fprintf(&b, "wall %x\n", r.res.Wall)
	for i, c := range r.res.Clocks {
		fmt.Fprintf(&b, "rank %d now %x", i, c.Now())
		for _, p := range fpPhases {
			fmt.Fprintf(&b, " %s %x", p, c.Bucket(p))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "comm bytes %d messages %d shuffle %d collective %d\n",
		r.res.CommBytes, r.res.CommMessages, r.res.ShuffleBytes, r.res.CollectiveBytes)
	b.WriteString("latencies")
	for _, l := range r.res.QueryLatencies {
		fmt.Fprintf(&b, " %x", l)
	}
	b.WriteByte('\n')
	if s := r.stats; s != nil {
		fmt.Fprintf(&b, "serve arrivals %d admitted %d shed %v seq %v queries %v\n",
			s.Arrivals, s.Admitted, s.ShedSeqs, s.BatchSeq, s.BatchQueries)
		for i := range s.BatchSeq {
			fmt.Fprintf(&b, "batch %d arrival %x start %x done %x\n",
				s.BatchSeq[i], s.BatchArrival[i], s.BatchStart[i], s.BatchDone[i])
		}
	}
	snap := r.reg.Snapshot()
	counters := make(map[string]int64)
	for _, c := range snap.Counters {
		counters[c.Name] += c.Value
	}
	gauges := make(map[string]float64)
	for _, g := range snap.Gauges { // (name, rank)-sorted, so the sums are reproducible
		gauges[g.Name] += g.Value
	}
	names := make([]string, 0, len(counters)+len(gauges))
	for n := range counters {
		names = append(names, n)
	}
	for n := range gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if fpSkippedSeries[n] || metrics.HostSide(n) || strings.HasSuffix(n, fpOrderSeries) {
			continue
		}
		if v, ok := counters[n]; ok {
			fmt.Fprintf(&b, "counter %s %d\n", n, v)
		} else {
			fmt.Fprintf(&b, "gauge %s %x\n", n, gauges[n])
		}
	}
	fmt.Fprintf(&b, "output %d bytes sha256 %x\n", len(r.out), sha256.Sum256(r.out))
	return b.String()
}

const (
	fpPioProcs = 5
	fpPioParts = 9 // > workers, so prefetch, dynamic, and re-issue all have work
	fpMpiProcs = 4
	fpMpiFrags = 6
)

func fpPio(t *testing.T, fx *fixture, opts core.Options, volMax int64, faults []mpi.Fault) fpRun {
	t.Helper()
	reg := metrics.NewRegistry()
	nodes := fpCluster(t, fx, fpPioProcs, volMax, reg)
	job := *fx.job
	job.Fragments = fpPioParts
	res, _, err := core.Run(nodes, fpPioProcs, mpi.Config{Cost: testCost(), Faults: faults, Metrics: reg}, &job, opts, nil)
	if err != nil {
		t.Fatalf("pio %+v: %v", opts, err)
	}
	out, err := nodes[0].Shared.ReadFile(job.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	return fpRun{res: res, out: out, reg: reg}
}

func fpMpi(t *testing.T, fx *fixture, opts mpiblast.Options, faults []mpi.Fault) fpRun {
	t.Helper()
	reg := metrics.NewRegistry()
	nodes := fpCluster(t, fx, fpMpiProcs, 0, reg)
	if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", fpMpiFrags); err != nil {
		t.Fatal(err)
	}
	job := *fx.job
	job.Fragments = fpMpiFrags
	res, _, err := mpiblast.Run(nodes, fpMpiProcs, mpi.Config{Cost: testCost(), Faults: faults, Metrics: reg}, &job, opts, nil)
	if err != nil {
		t.Fatalf("mpi %+v: %v", opts, err)
	}
	out, err := nodes[0].Shared.ReadFile(job.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	return fpRun{res: res, out: out, reg: reg}
}

// midSearch places a crash of the last worker halfway through the
// fault-free run's pre-output window.
func midSearch(free engine.RunResult, nprocs int) []mpi.Fault {
	return []mpi.Fault{{Rank: nprocs - 1, At: 0.5 * (free.Wall - free.Phase.Output), Kind: mpi.FaultCrash}}
}

func fpServePio(t *testing.T, fx *fixture, opts core.Options, batches []workload.Batch, admitCap int, faults []mpi.Fault) (fpRun, error) {
	t.Helper()
	reg := metrics.NewRegistry()
	nodes := fpCluster(t, fx, fpPioProcs, 0, reg)
	job := *fx.job
	job.Fragments = fpPioParts
	res, stats, err := core.Run(nodes, fpPioProcs, mpi.Config{Cost: testCost(), Faults: faults, Metrics: reg}, &job, opts, &engine.Stream{Batches: batches, AdmitCap: admitCap})
	if err != nil {
		return fpRun{}, err
	}
	out, err := nodes[0].Shared.ReadFile(job.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	return fpRun{res: res, stats: &stats, out: out, reg: reg}, nil
}

func fpServeMpi(t *testing.T, fx *fixture, opts mpiblast.Options, batches []workload.Batch) fpRun {
	t.Helper()
	reg := metrics.NewRegistry()
	nodes := fpCluster(t, fx, fpMpiProcs, 0, reg)
	if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", fpMpiFrags); err != nil {
		t.Fatal(err)
	}
	job := *fx.job
	job.Fragments = fpMpiFrags
	res, stats, err := mpiblast.Run(nodes, fpMpiProcs, mpi.Config{Cost: testCost(), Metrics: reg}, &job, opts, &engine.Stream{Batches: batches})
	if err != nil {
		t.Fatalf("mpi serve %+v: %v", opts, err)
	}
	out, err := nodes[0].Shared.ReadFile(job.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	return fpRun{res: res, stats: &stats, out: out, reg: reg}
}

func TestClockFingerprint(t *testing.T) {
	// The golden holds exact float bits, and they are amd64's. No parblast/
	// function fuses a multiply-add on any target (scripts/check.sh reads the
	// cross-built binaries), but the standard library's math.Exp has
	// per-architecture assembly (exp_amd64.s, exp_arm64.s) and so does
	// math.Log on amd64 (log_amd64.s): the statistics behind every E-value and
	// cutoff may differ in the last bit elsewhere, so the blob is only
	// comparable on the architecture that generated it.
	if runtime.GOARCH != "amd64" {
		t.Skipf("clock fingerprint golden was generated on amd64; math.Exp and math.Log are per-architecture assembly, so %s may differ in the last bit", runtime.GOARCH)
	}
	fx := makeFixture(t, 2000)
	var blob strings.Builder
	add := func(name string, r fpRun) {
		fpCheckOrder(t, name, r.reg)
		blob.WriteString(r.render(name))
	}

	// pioBLAST, one-shot.
	pioCases := []struct {
		name   string
		opts   core.Options
		volMax int64
	}{
		{"pio/default", core.Options{}, 0},
		{"pio/tree", core.Options{TreeMerge: true, MergeFanout: 2}, 0},
		{"pio/collective", core.Options{CollectiveRead: true}, 3000},
		{"pio/prefetch2", core.Options{PrefetchDepth: 2}, 0},
		{"pio/dynamic", core.Options{DynamicAssignment: true}, 0},
		{"pio/dynamic+prefetch", core.Options{DynamicAssignment: true, PrefetchDepth: 1}, 0},
		{"pio/batch3", core.Options{QueryBatch: 3}, 0},
		{"pio/membudget", core.Options{MemoryBudgetBytes: 6 << 10}, 0},
		{"pio/earlyprune", core.Options{EarlyPrune: true}, 0},
		{"pio/independent-output", core.Options{IndependentOutput: true}, 0},
		{"pio/forced-ft", core.Options{FaultTolerant: true}, 0},
		{"pio/tree+collective+batch", core.Options{TreeMerge: true, CollectiveRead: true, QueryBatch: 4, EarlyPrune: true}, 3000},
	}
	for _, c := range pioCases {
		add(c.name, fpPio(t, fx, c.opts, c.volMax, nil))
	}
	pioCrashes := []struct {
		name string
		opts core.Options
	}{
		{"pio/crash", core.Options{FaultTolerant: true}},
		{"pio/crash+prefetch2", core.Options{FaultTolerant: true, PrefetchDepth: 2}},
		{"pio/crash+collective", core.Options{FaultTolerant: true, CollectiveRead: true}},
		{"pio/crash+dynamic", core.Options{FaultTolerant: true, DynamicAssignment: true}},
		{"pio/crash+dynamic+prefetch", core.Options{FaultTolerant: true, DynamicAssignment: true, PrefetchDepth: 1}},
		{"pio/crash+tree", core.Options{FaultTolerant: true, TreeMerge: true, MergeFanout: 2}},
	}
	for _, c := range pioCrashes {
		free := fpPio(t, fx, c.opts, 0, nil)
		add(c.name, fpPio(t, fx, c.opts, 0, midSearch(free.res, fpPioProcs)))
	}

	// mpiBLAST, one-shot.
	mpiCases := []struct {
		name string
		opts mpiblast.Options
	}{
		{"mpi/flat", mpiblast.Options{}},
		{"mpi/tree", mpiblast.Options{TreeMerge: true, MergeFanout: 2}},
		{"mpi/fetchwindow4", mpiblast.Options{FetchWindow: 4}},
		{"mpi/tree+fetchwindow4", mpiblast.Options{TreeMerge: true, FetchWindow: 4}},
	}
	for _, c := range mpiCases {
		add(c.name, fpMpi(t, fx, c.opts, nil))
	}
	for _, tree := range []bool{false, true} {
		opts := mpiblast.Options{TreeMerge: tree}
		free := fpMpi(t, fx, opts, nil)
		add(fmt.Sprintf("mpi/crash tree=%v", tree), fpMpi(t, fx, opts, midSearch(free.res, fpMpiProcs)))
	}

	// Serving mode, both engines. A moderate rate queues a few batches; the
	// saturating stream against a small admission cap sheds.
	batches := serveArrivals(t, fx, workload.ArrivalConfig{Rate: 4, BatchMean: 2, BatchDist: workload.BatchUniform, Seed: 7})
	serveCases := []struct {
		name string
		opts core.Options
	}{
		{"serve/pio/flat", core.Options{}},
		{"serve/pio/tree", core.Options{TreeMerge: true, MergeFanout: 2}},
		{"serve/pio/collective", core.Options{CollectiveRead: true}},
		{"serve/pio/prefetch2", core.Options{PrefetchDepth: 2}},
		{"serve/pio/earlyprune+independent", core.Options{EarlyPrune: true, IndependentOutput: true}},
		{"serve/pio/forced-ft", core.Options{FaultTolerant: true}},
	}
	for _, c := range serveCases {
		r, err := fpServePio(t, fx, c.opts, batches, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		add(c.name, r)
	}
	burst := serveArrivals(t, fx, workload.ArrivalConfig{Rate: 100, Burst: 4, BatchMean: 2, Seed: 23})
	shed, err := fpServePio(t, fx, core.Options{}, burst, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	add("serve/pio/shed", shed)

	// Mid-stream crash: aim at the middle batch's window and take the first
	// probe that does not land in an (unrecoverable) output window. Which
	// probe hit is part of the fingerprint.
	for _, opts := range []core.Options{{FaultTolerant: true}, {FaultTolerant: true, PrefetchDepth: 2, TreeMerge: true}} {
		trickle := serveArrivals(t, fx, workload.ArrivalConfig{Rate: 0.2, BatchMean: 2, Seed: 31})
		free, err := fpServePio(t, fx, opts, trickle, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("serve/pio/crash prefetch=%d tree=%v", opts.PrefetchDepth, opts.TreeMerge)
		mid := len(free.stats.BatchStart) / 2
		hit := false
		for _, frac := range []float64{0.1, 0.3, 0.5, 0.7} {
			at := free.stats.BatchStart[mid] + float64(frac*(free.stats.BatchDone[mid]-free.stats.BatchStart[mid]))
			faults := []mpi.Fault{{Rank: fpPioProcs - 1, At: at, Kind: mpi.FaultCrash}}
			r, err := fpServePio(t, fx, opts, trickle, 0, faults)
			if err != nil {
				fmt.Fprintf(&blob, "== %s probe %g\nerror %v\n", name, frac, err)
				continue
			}
			r.note = fmt.Sprintf("crash probe %g at %x", frac, at)
			add(name, r)
			hit = true
			break
		}
		if !hit {
			t.Fatalf("%s: every crash probe failed", name)
		}
	}
	for _, tree := range []bool{false, true} {
		add(fmt.Sprintf("serve/mpi tree=%v", tree), fpServeMpi(t, fx, mpiblast.Options{TreeMerge: tree, FetchWindow: 2}, batches))
	}

	got := blob.String()
	if *updateFingerprint {
		if err := os.MkdirAll(filepath.Dir(fingerprintGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fingerprintGolden)
	if err != nil {
		t.Fatalf("%v (generate with -update-fingerprint)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		section := ""
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if strings.HasPrefix(wl[i], "== ") {
				section = wl[i]
			}
			if gl[i] != wl[i] {
				t.Fatalf("clock fingerprint moved in %q at line %d:\n got: %s\nwant: %s", section, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("clock fingerprint length changed: %d lines, golden has %d", len(gl), len(wl))
	}
}
