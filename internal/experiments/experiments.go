// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the simulated cluster: the mpiBLAST characterization
// (Figure 1a/1b), the Table 1 phase breakdown, the query→output size map
// (Table 2), the Altix scalability studies (Figure 3a/3b), the NFS-cluster
// study (Figure 4), and the design-choice ablations DESIGN.md calls out.
// Specs (catalogue.go) is the one list of them and of this repo's extensions.
//
// The workload is the paper's, scaled to laptop size: a redundant
// ("family"-structured) protein database standing in for GenBank nr, and
// query sets randomly sampled from the database itself. Absolute virtual
// times are therefore a constant factor below the paper's (the database is
// ~4 orders of magnitude smaller); the reproduced claims are the shapes —
// who wins, search-time fractions, where the baseline stops scaling.
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"parblast"
	"parblast/internal/blast"
	"parblast/internal/engine"
	"parblast/internal/report"
	"parblast/internal/seq"
	"parblast/internal/simtime"
	"parblast/internal/vfs"
	"parblast/internal/workload"
)

// Lab bundles the scaled standard workload and cost model.
type Lab struct {
	// DBConfig generates the nr-stand-in database.
	DB workload.DBConfig
	// QueryMeanLen is the mean sampled query length.
	QueryMeanLen int
	// QuerySizes lists the query-set volumes (bytes) standing in for the
	// paper's 26/77/159/289 KB sets; index 2 is the default "150 KB" set.
	QuerySizes [4]int
	// Cost is the virtual-time model.
	Cost simtime.CostModel
	// Options configures the kernel.
	Options blast.Options
	// MergeRanks lists the rank counts of the mergescale sweep
	// (nil = MergeScaleRanks).
	MergeRanks []int
}

// DefaultLab returns the standard scaled workload: ~180 K residues of
// redundant protein data (families of 12 at 15% divergence), query sets of
// 1.5–17 KB sampled from the database.
func DefaultLab() Lab {
	return Lab{
		DB: workload.DBConfig{
			Kind:       seq.Protein,
			NumSeqs:    600,
			MeanLen:    300,
			Seed:       7,
			IDPrefix:   "nr",
			FamilySize: 12,
		},
		QueryMeanLen: 400,
		QuerySizes:   [4]int{1500, 4500, 9000, 17000},
		Cost:         simtime.DefaultCostModel(),
		Options:      blast.DefaultProteinOptions(),
	}
}

// queries samples the query set of the given volume.
func (l *Lab) queries(bytes int) ([]*seq.Sequence, error) {
	db, err := workload.SynthesizeDB(l.DB)
	if err != nil {
		return nil, err
	}
	return workload.SampleQueries(db, workload.QueryConfig{
		TargetBytes:  bytes,
		MeanLen:      l.QueryMeanLen,
		MutationRate: 0.05,
		Seed:         99,
	})
}

// stage stands spec up on a fresh cluster under the lab's cost model, with
// the lab's database formatted on it as "nr", to search queries with the
// lab's kernel options. Every experiment that runs an engine stages through
// here and runs the spec with the cluster's Exec.
func (l *Lab) stage(spec parblast.RunSpec, queries []*seq.Sequence) (*parblast.Cluster, parblast.RunSpec, error) {
	spec.Search.Queries, spec.Search.Output, spec.Search.Options = queries, "results.out", l.Options
	return parblast.Stage(spec, l.Cost, func(c *parblast.Cluster) (*parblast.DB, error) {
		seqs, err := workload.SynthesizeDB(l.DB)
		if err != nil {
			return nil, err
		}
		return c.FormatDB("nr", seqs, "synthetic nr")
	})
}

// exec stages spec and runs it: the result, a served run's admission
// accounting, and the output file.
func (l *Lab) exec(spec parblast.RunSpec, queries []*seq.Sequence) (engine.RunResult, engine.ServeStats, []byte, error) {
	c, spec, err := l.stage(spec, queries)
	if err != nil {
		return engine.RunResult{}, engine.ServeStats{}, nil, err
	}
	return c.Exec(spec)
}

// runSpec is one engine run of a lab's workload: the run itself, and the
// query volume it searches. An experiment is the list of them it sweeps.
type runSpec struct {
	// variant names the design choice this run measures. It labels the
	// row, in the engine column too; the paper's figures leave it empty
	// and their rows carry the experiment's label and the engine's name.
	variant    string
	lab        *Lab
	queryBytes int
	run        parblast.RunSpec
}

// Row is one measured experiment data point.
type Row struct {
	Label       string
	Engine      string
	Procs       int
	Fragments   int
	QueryBytes  int
	OutputBytes int64
	Result      engine.RunResult
}

// SuiteRow flattens the row into the suite artifact's row shape.
func (r Row) SuiteRow() report.SuiteRow {
	return report.SuiteRow{
		Label:      r.Label,
		Engine:     r.Engine,
		Procs:      r.Procs,
		Fragments:  r.Fragments,
		QueryBytes: r.QueryBytes,
		Summary:    report.SummaryOf(r.Result),
	}
}

// sweep executes the runs in order, each on a fresh cluster, and labels the
// rows: with label, or with the run's variant name where it has one.
func sweep(label string, runs []runSpec) ([]Row, error) {
	rows := make([]Row, 0, len(runs))
	for _, spec := range runs {
		r := spec.run
		row := Row{Label: label, Engine: r.Engine.Short(), Procs: r.Procs, Fragments: r.Search.Fragments, QueryBytes: spec.queryBytes}
		if spec.variant != "" {
			row.Label, row.Engine = spec.variant, spec.variant
		}
		queries, err := spec.lab.queries(spec.queryBytes)
		if err == nil {
			row.Result, _, _, err = spec.lab.exec(r, queries)
		}
		if err != nil {
			return nil, fmt.Errorf("%s %s p=%d frags=%d q=%d: %w", label, row.Engine,
				row.Procs, row.Fragments, spec.queryBytes, err)
		}
		row.OutputBytes = row.Result.OutputBytes
		rows = append(rows, row)
	}
	return rows, nil
}

// grid lists the runs on plat at every point of procs × fragments ×
// queryBytes × engines, engines innermost: the shape of every table and
// figure of §4.
func grid(lab *Lab, plat parblast.Platform, engines []parblast.Engine, procs, fragments, queryBytes []int) []runSpec {
	var runs []runSpec
	for _, p := range procs {
		for _, f := range fragments {
			for _, qb := range queryBytes {
				for _, eng := range engines {
					runs = append(runs, runSpec{lab: lab, queryBytes: qb, run: parblast.RunSpec{
						Engine: eng, Procs: p, Platform: plat, Search: parblast.Search{Fragments: f},
					}})
				}
			}
		}
	}
	return runs
}

// The axes the paper's experiments share: which engines run, natural
// partitioning (one fragment per worker), and the default "150 KB" query set.
var (
	mpiOnly     = []parblast.Engine{parblast.EngineMPIBlast}
	pioOnly     = []parblast.Engine{parblast.EnginePioBLAST}
	bothEngines = []parblast.Engine{parblast.EngineMPIBlast, parblast.EnginePioBLAST}
	natural     = []int{0}
)

// defaultQueries is the query-volume axis of an experiment that does not
// vary it.
func (l *Lab) defaultQueries() []int { return l.QuerySizes[2:3] }

// --- Figure 1(a): mpiBLAST search vs non-search time by process count ----

// Fig1a reproduces the paper's Figure 1(a): the distribution of mpiBLAST
// execution time between search and "other" at 16/32/64 processes. The
// paper's observation: the search share falls from ~96% to ~71%. The paper
// ran this on GenBank nt, a larger and less hit-dense database than nr —
// modelled here by dropping the family redundancy (fewer hits per query,
// so search dominates more than in the Table 1 workload).
func Fig1a(lab *Lab) ([]Row, error) {
	ntLab := *lab
	ntLab.DB.NumSeqs = 1800
	ntLab.DB.FamilySize = 3
	ntLab.DB.IDPrefix = "nt"
	return sweep("fig1a", grid(&ntLab, parblast.PlatformAltix, mpiOnly, []int{16, 32, 64}, natural, lab.defaultQueries()))
}

// Fig1b reproduces Figure 1(b): mpiBLAST's sensitivity to the number of
// pre-generated fragments at 32 processes (paper: 31/61/96/167 fragments;
// both search and non-search time rise with fragment count).
func Fig1b(lab *Lab) ([]Row, error) {
	return sweep("fig1b", grid(lab, parblast.PlatformAltix, mpiOnly, []int{32}, []int{31, 61, 96, 167}, lab.defaultQueries()))
}

// Table1 reproduces the phase breakdown of both engines at 32 processes
// with the "150 KB" query set and natural partitioning.
func Table1(lab *Lab) ([]Row, error) {
	return sweep("table1", grid(lab, parblast.PlatformAltix, bothEngines, []int{32}, natural, lab.defaultQueries()))
}

// Table2 reproduces the query-size → output-size map by running the
// pipeline for each query set (the paper reports 26K→11M … 289K→153M).
func Table2(lab *Lab) ([]Row, error) {
	return sweep("table2", grid(lab, parblast.PlatformAltix, pioOnly, []int{8}, natural, lab.QuerySizes[:]))
}

// Fig3a reproduces Figure 3(a): node scalability of both engines on the
// Altix, 4 → 62 processes.
func Fig3a(lab *Lab) ([]Row, error) {
	return sweep("fig3a", grid(lab, parblast.PlatformAltix, bothEngines, []int{4, 8, 16, 32, 62}, natural, lab.defaultQueries()))
}

// Fig3b reproduces Figure 3(b): output scalability at 62 processes across
// the four query/output sizes.
func Fig3b(lab *Lab) ([]Row, error) {
	return sweep("fig3b", grid(lab, parblast.PlatformAltix, bothEngines, []int{62}, natural, lab.QuerySizes[:]))
}

// Fig4 reproduces Figure 4: the same process-scalability study on the
// NFS-based blade cluster, 4 → 32 processes.
func Fig4(lab *Lab) ([]Row, error) {
	return sweep("fig4", grid(lab, parblast.PlatformBladeCluster, bothEngines, []int{4, 8, 16, 32}, natural, lab.defaultQueries()))
}

// Ablations measures the design choices DESIGN.md calls out:
//   - collective vs independent output, on both file systems (two-phase
//     I/O matters most where concurrent streams serialize, i.e. NFS);
//   - early score communication, with a binding hit cap (pruning can only
//     help when workers hold more candidates than can qualify globally);
//   - virtual-partition granularity (the §5 load-balancing trade-off).
func Ablations(lab *Lab) ([]Row, error) {
	cap10 := *lab
	cap10.Options.MaxTargetSeqs = 10
	type (
		run    = parblast.RunSpec
		search = parblast.Search
		pio    = parblast.PioOptions
		mpi    = parblast.MpiOptions
	)
	runs := []runSpec{
		{variant: "pio-collective"},
		{variant: "pio-independent", run: run{Search: search{Pio: pio{IndependentOutput: true}}}},
		{variant: "pio-coll-nfs", run: run{Platform: parblast.PlatformBladeCluster}},
		{variant: "pio-indep-nfs", run: run{Platform: parblast.PlatformBladeCluster, Search: search{Pio: pio{IndependentOutput: true}}}},
		{variant: "pio-cap10", lab: &cap10},
		{variant: "pio-cap10-prune", lab: &cap10, run: run{Search: search{Pio: pio{EarlyPrune: true}}}},
		{variant: "pio-batch4", run: run{Search: search{Pio: pio{QueryBatch: 4}}}},
		{variant: "pio-batch16", run: run{Search: search{Pio: pio{QueryBatch: 16}}}},
		{variant: "pio-adaptive64K", run: run{Search: search{Pio: pio{MemoryBudgetBytes: 64 << 10}}}},
		{variant: "pio-frag62", run: run{Search: search{Fragments: 62}}},
		{variant: "pio-frag124", run: run{Search: search{Fragments: 124}}},
		{variant: "pio-frag248", run: run{Search: search{Fragments: 248}}},
		{variant: "pio-frag124-dyn", run: run{Search: search{Fragments: 124, Pio: pio{DynamicAssignment: true}}}},
		{variant: "mpi-serial-fetch", run: run{Engine: parblast.EngineMPIBlast, Search: search{Mpi: mpi{FetchWindow: 1}}}},
		{variant: "mpi-fetch-win16", run: run{Engine: parblast.EngineMPIBlast, Search: search{Mpi: mpi{FetchWindow: 16}}}},
	}
	// What a variant leaves unsaid is the Table 1 configuration of pioBLAST
	// (the zero platform is the Altix, the zero engine the sequential one).
	for i := range runs {
		r := &runs[i]
		r.run.Procs, r.queryBytes = 32, lab.QuerySizes[2]
		if r.lab == nil {
			r.lab = lab
		}
		if r.run.Engine == parblast.EngineSequential {
			r.run.Engine = parblast.EnginePioBLAST
		}
	}
	return sweep("ablation", runs)
}

// ReadPath quantifies the input-stage redesign. The blade/NFS pair is the
// paper's strided-read scenario: with many virtual fragments per worker on
// the one-channel store, independent reads pay per-operation latency for
// every extent, while two-phase collective reads aggregate them into a few
// large sieved accesses issued by the aggregator (rank 0 — the otherwise
// idle master — on NFS). The Altix pair measures input/search overlap:
// with spare storage parallelism, prefetching the next partition hides its
// read time behind the current partition's search. The dynamic pair
// pipelines the greedy assignment protocol the same way.
func ReadPath(lab *Lab) ([]Row, error) {
	const procs = 8
	type pio = parblast.PioOptions
	// A run that names no platform is on the Altix, the zero one.
	runs := []runSpec{
		{variant: "pio-indep-read", run: parblast.RunSpec{Platform: parblast.PlatformBladeCluster}},
		{variant: "pio-coll-read", run: parblast.RunSpec{Platform: parblast.PlatformBladeCluster, Search: parblast.Search{Pio: pio{CollectiveRead: true}}}},
		{variant: "pio-sync-read"},
		{variant: "pio-prefetch2", run: parblast.RunSpec{Search: parblast.Search{Pio: pio{PrefetchDepth: 2}}}},
		{variant: "pio-dyn", run: parblast.RunSpec{Search: parblast.Search{Pio: pio{DynamicAssignment: true}}}},
		{variant: "pio-dyn-prefetch", run: parblast.RunSpec{Search: parblast.Search{Pio: pio{DynamicAssignment: true, PrefetchDepth: 1}}}},
	}
	for i := range runs {
		r := &runs[i]
		r.lab, r.run.Engine, r.queryBytes = lab, parblast.EnginePioBLAST, lab.QuerySizes[2]
		r.run.Procs, r.run.Search.Fragments = procs, 8*(procs-1)
	}
	return sweep("readpath", runs)
}

// Hetero measures the §5 load-balancing extension on a heterogeneous
// cluster: 25% of the workers run at one-third speed. Static natural
// partitioning stalls on the slow nodes; dynamic greedy assignment of
// fine-grained virtual fragments absorbs the skew.
func Hetero(lab *Lab) ([]Row, error) {
	const procs = 32
	speeds := make([]float64, procs)
	for i := range speeds {
		speeds[i] = 1
	}
	for i := procs - procs/4; i < procs; i++ {
		speeds[i] = 3
	}
	runs := []runSpec{
		{variant: "pio-static-hetero"},
		{variant: "pio-dynamic-hetero", run: parblast.RunSpec{Search: parblast.Search{
			Fragments: 2 * (procs - 1), Pio: parblast.PioOptions{DynamicAssignment: true}}}},
	}
	for i := range runs {
		r := &runs[i]
		r.lab, r.run.Platform, r.run.Engine = lab, parblast.PlatformAltix, parblast.EnginePioBLAST
		r.run.Procs, r.queryBytes, r.run.Search.NodeSpeeds = procs, lab.QuerySizes[2], speeds
	}
	return sweep("hetero", runs)
}

// FaultRow is one engine's fault-tolerance measurement: either a worker
// crash (recovery protocol) or a transient-I/O schedule (storage retries).
type FaultRow struct {
	Engine    string
	Procs     int
	CrashAt   float64 // virtual time of the injected worker crash (0 = I/O faults only)
	FaultFree float64 // wall time without faults (recovery protocol armed)
	Faulted   float64 // wall time with the fault schedule
	Overhead  float64 // Faulted − FaultFree: the cost of absorbing the faults
	Identical bool    // faulted-run output byte-identical to the oracle
	// Result is the faulted run's full result; the vfs transient-fault
	// stats (IOFaultedOps/IORetries/IOBackoff) surface through it.
	Result engine.RunResult
}

// SuiteRow flattens the row into the suite artifact's row shape; the
// faulted run's summary carries the I/O retry/backoff stats.
func (r FaultRow) SuiteRow() report.SuiteRow {
	return report.SuiteRow{
		Label:   r.Engine,
		Engine:  r.Engine,
		Procs:   r.Procs,
		Summary: report.SummaryOf(r.Result),
	}
}

// faultQueryBytes is the query volume of the recovery scenario: small on
// purpose, so the crash's unavoidable re-search (identical in both engines)
// does not drown the cost the scenario isolates — re-ACQUIRING the lost
// data, where the engines genuinely differ (fragment re-copy vs re-issued
// offsets).
const faultQueryBytes = 500

// runFaultSpec executes one engine on a fresh PlatformSAN cluster with the
// given fault schedule — crashes (mpi layer) and/or transient I/O errors on
// the shared store (vfs layer) — and returns the result plus the produced
// output bytes.
func (l *Lab) runFaultSpec(eng parblast.Engine, procs int, faults []parblast.Fault, ioPlan *vfs.FaultPlan) (engine.RunResult, []byte, error) {
	queries, err := l.queries(faultQueryBytes)
	if err != nil {
		return engine.RunResult{}, nil, err
	}
	// Natural partitioning, spelled out: one fragment per worker, so the
	// victim loses exactly one partition and the recovery cost is a single
	// clean re-acquire + re-search in both engines. The recovery protocol
	// is armed in pioBLAST's baseline too, so the overhead isolates
	// recovery work rather than protocol presence.
	c, spec, err := l.stage(parblast.RunSpec{Engine: eng, Procs: procs, Platform: parblast.PlatformSAN, Search: parblast.Search{
		Fragments: procs - 1, Faults: faults, Pio: parblast.PioOptions{FaultTolerant: eng == parblast.EnginePioBLAST},
	}}, queries)
	if err != nil {
		return engine.RunResult{}, nil, err
	}
	if ioPlan != nil {
		// Schedule the plan relative to the RUN's first shared-store access:
		// FirstOp in the plan is run-relative, so shift it past the accesses
		// setup (formatdb, fragment prep) already charged. Injection after
		// setup keeps every faulted ordinal inside the measured run.
		p := *ioPlan
		ops, _, _ := c.SharedFS().Stats()
		p.FirstOp += ops
		if err := c.SharedFS().InjectFaults(p); err != nil {
			return engine.RunResult{}, nil, err
		}
	}
	res, _, out, err := c.Exec(spec)
	return res, out, err
}

// Faults measures failure recovery on both engines (§3.1's operational
// argument, extended to run time): a fault-free baseline fixes the crash
// time at mid-search, then worker procs−1 is crashed there and the run must
// still produce byte-identical output. The recovery-cost gap is the point:
// pioBLAST re-issues the dead worker's VIRTUAL partition (offset ranges
// into the global database), while mpiBLAST's replacement worker must
// re-copy the physical fragment files before re-searching. A second pair of
// rows ("mpi+io"/"pio+io") injects transient errors into the shared store
// instead: both engines must absorb the vfs retry/backoff latency with
// byte-identical output, and the retry totals surface in the row.
func Faults(lab *Lab) ([]FaultRow, error) {
	const procs = 8
	// The oracle: the sequential engine's output on the same job, on one
	// rank of near-free storage.
	queries, err := lab.queries(faultQueryBytes)
	if err != nil {
		return nil, err
	}
	_, _, oracle, err := lab.exec(parblast.RunSpec{Engine: parblast.EngineSequential, Procs: 1, Platform: parblast.PlatformIdeal}, queries)
	if err != nil {
		return nil, err
	}

	var rows []FaultRow
	for _, eng := range bothEngines {
		name := eng.Short()
		free, freeOut, err := lab.runFaultSpec(eng, procs, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("faults %s baseline: %w", name, err)
		}
		if !bytes.Equal(freeOut, oracle) {
			return nil, fmt.Errorf("faults %s baseline: output differs from the sequential oracle", name)
		}
		// row is a faulted run of eng, measured against the fault-free one.
		row := func(label string, at float64, res engine.RunResult, out []byte) FaultRow {
			return FaultRow{Engine: label, Procs: procs, CrashAt: at, FaultFree: free.Wall, Faulted: res.Wall,
				Overhead: res.Wall - free.Wall, Identical: bytes.Equal(out, oracle), Result: res}
		}
		// Crash the last worker at 75% of the pre-output span (copy + input
		// + search): late enough that its data acquisition is sunk cost —
		// crashing inside the serialized copy/input window would REFUND
		// storage contention to the survivors and mask the recovery cost —
		// but still inside its search work.
		at := 0.75 * (free.Wall - free.Phase.Output)
		crashed, crashedOut, err := lab.runFaultSpec(eng, procs, []parblast.Fault{
			{Rank: procs - 1, At: at},
		}, nil)
		if err != nil {
			return nil, fmt.Errorf("faults %s crash: %w", name, err)
		}
		rows = append(rows, row(name, at, crashed, crashedOut))
		// Transient I/O errors on the shared store (retry + exponential
		// backoff in the vfs layer): output must be unchanged, the cost is
		// pure latency, and the retry/backoff totals surface through
		// engine.RunResult's I/O fault stats.
		ioFaulted, ioOut, err := lab.runFaultSpec(eng, procs, nil, &vfs.FaultPlan{
			FirstOp: 3, Every: 5, Count: 4, Failures: 2, Backoff: 0.002,
		})
		if err != nil {
			return nil, fmt.Errorf("faults %s io: %w", name, err)
		}
		rows = append(rows, row(name+"+io", 0, ioFaulted, ioOut))
	}
	return rows, nil
}

// PrintFaultRows renders the body of the fault-tolerance comparison: worker
// crashes and transient-I/O schedules, with the vfs retry/backoff stats
// surfaced.
func PrintFaultRows(w io.Writer, rows []FaultRow) {
	fmt.Fprintf(w, "%-8s %5s %10s %10s %10s %10s %10s %9s %9s %9s\n",
		"engine", "procs", "crashAt", "faultfree", "faulted", "overhead", "identical",
		"ioFaults", "ioRetries", "backoff")
	byEngine := make(map[string]FaultRow, len(rows))
	for _, r := range rows {
		byEngine[r.Engine] = r
		fmt.Fprintf(w, "%-8s %5d %10.3f %10.3f %10.3f %10.3f %10v %9d %9d %9.4f\n",
			r.Engine, r.Procs, r.CrashAt, r.FaultFree, r.Faulted, r.Overhead, r.Identical,
			r.Result.IOFaultedOps, r.Result.IORetries, r.Result.IOBackoff)
	}
	mpiRow, mpiOK := byEngine["mpi"]
	pioRow, pioOK := byEngine["pio"]
	if mpiOK && pioOK {
		fmt.Fprintf(w, "recovery-cost gap: mpi re-copies the physical fragment (%.3fs overhead), pio re-issues offsets (%.3fs)\n",
			mpiRow.Overhead, pioRow.Overhead)
	}
}

// PrepRow is one row of the operational-overhead comparison.
type PrepRow struct {
	Label    string
	Workers  int
	Files    int
	Bytes    int64
	NeedsRun bool // whether a (re-)partitioning run is needed for this worker count
}

// PrepCost quantifies §3.1's operational argument: the baseline needs the
// database pre-partitioned into (at least) as many physical fragments as
// workers — a fresh set of files whenever the worker count outgrows the
// fragment count — while pioBLAST always uses the ONE set of global files.
func PrepCost(lab *Lab) ([]PrepRow, error) {
	seqs, err := workload.SynthesizeDB(lab.DB)
	if err != nil {
		return nil, err
	}
	load := func(c *parblast.Cluster) (*parblast.DB, error) { return c.FormatDB("nr", seqs, "prep") }
	// What Stage leaves on the shared store: mpiBLAST's fragments for each
	// worker count (plus the master's rank), then pioBLAST's global files.
	var rows []PrepRow
	for _, workers := range []int{15, 31, 61, 0} {
		row := PrepRow{Label: "mpiformatdb", Workers: workers, NeedsRun: true}
		spec, prefix := parblast.RunSpec{Engine: parblast.EngineMPIBlast, Procs: workers + 1, Platform: parblast.PlatformIdeal}, "nr.frag"
		if workers == 0 {
			row, spec.Engine, prefix = PrepRow{Label: "pioBLAST-global"}, parblast.EnginePioBLAST, "nr"
		}
		c, _, err := parblast.Stage(spec, lab.Cost, load)
		if err != nil {
			return nil, err
		}
		for _, path := range c.SharedFS().List() {
			if f, err := c.SharedFS().Open(path); err == nil && strings.HasPrefix(path, prefix) {
				row.Files++
				row.Bytes += f.Size()
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintPrepRows renders the body of the operational-overhead table.
func PrintPrepRows(w io.Writer, rows []PrepRow) {
	fmt.Fprintf(w, "%-18s %8s %7s %10s %s\n", "scheme", "workers", "files", "bytes", "re-run needed when workers grow?")
	for _, r := range rows {
		workers := "any"
		if r.Workers > 0 {
			workers = fmt.Sprintf("%d", r.Workers)
		}
		rerun := "no — one global set"
		if r.NeedsRun {
			rerun = "yes — fragments are per-count"
		}
		fmt.Fprintf(w, "%-18s %8s %7d %10d %s\n", r.Label, workers, r.Files, r.Bytes, rerun)
	}
}

// --- printing ---------------------------------------------------------------

// printTitle writes the header line every table starts with.
func printTitle(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}

// printRowBody renders rows as the paper-style table, one line per run with
// the phase split, total and search share: what the catalogue prints under
// the entry's own title.
func printRowBody(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "%-16s %5s %5s %8s | %8s %8s %8s %8s %8s | %8s %7s %10s %9s\n",
		"engine", "procs", "frags", "queryB",
		"copy", "input", "search", "output", "other", "total", "srch%", "outBytes", "commKB")
	for _, r := range rows {
		b := r.Result.Phase
		fmt.Fprintf(w, "%-16s %5d %5d %8d | %8.2f %8.2f %8.2f %8.2f %8.2f | %8.2f %6.1f%% %10d %9.0f\n",
			r.Engine, r.Procs, r.Fragments, r.QueryBytes,
			b.Copy, b.Input, b.Search, b.Output, b.Other,
			r.Result.Wall, r.Result.SearchFraction()*100, r.OutputBytes,
			float64(r.Result.CommBytes)/1024)
	}
}
