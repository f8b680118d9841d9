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

	"parblast/internal/blast"
	"parblast/internal/core"
	"parblast/internal/engine"
	"parblast/internal/formatdb"
	"parblast/internal/mpi"
	"parblast/internal/mpiblast"
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

// platform describes a storage configuration.
type platform struct {
	name   string
	shared vfs.Profile
	local  *vfs.Profile
}

func altix() platform { return platform{name: "altix-xfs", shared: vfs.XFSLike()} }

func blade() platform {
	l := vfs.LocalDisk()
	return platform{name: "blade-nfs", shared: vfs.NFSLike(), local: &l}
}

// rig is one stood-up experiment: a fresh cluster with the lab's database
// formatted on it as "nr" — and pre-partitioned, for the baseline — plus the
// job to run there. Every experiment that runs an engine stands up through
// here and dispatches through run.
type rig struct {
	eng   string // "mpi" or "pio"
	procs int
	nodes []*vfs.Node
	job   *engine.Job
}

// variant carries each engine's options; a run reads its own engine's.
type variant struct {
	pio core.Options
	mpi mpiblast.Options
}

// standUp builds the rig. fragments is the job's partition granularity
// (0 = natural: one per worker), which for the baseline is also the number
// of physical fragments prepared.
func (l *Lab) standUp(eng string, procs int, plat platform, fragments int, queries []*seq.Sequence) (*rig, error) {
	if eng != "mpi" && eng != "pio" {
		return nil, fmt.Errorf("experiments: unknown engine %q", eng)
	}
	nodes, err := vfs.Cluster(procs, plat.shared, plat.local)
	if err != nil {
		return nil, err
	}
	seqs, err := workload.SynthesizeDB(l.DB)
	if err != nil {
		return nil, err
	}
	if _, err := formatdb.Format(nodes[0].Shared, "nr", seqs, formatdb.Config{
		Title: "synthetic nr", Kind: l.DB.Kind,
	}); err != nil {
		return nil, err
	}
	if eng == "mpi" {
		nFrags := fragments
		if nFrags == 0 {
			nFrags = procs - 1
		}
		if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", nFrags); err != nil {
			return nil, err
		}
	}
	return &rig{eng: eng, procs: procs, nodes: nodes, job: &engine.Job{
		DBBase:     "nr",
		Queries:    queries,
		Options:    l.Options,
		OutputPath: "results.out",
		Fragments:  fragments,
	}}, nil
}

// run executes the rig's job on its engine: one-shot, or serving the
// stream when there is one.
func (r *rig) run(cfg mpi.Config, v variant, stream *engine.Stream) (engine.RunResult, engine.ServeStats, error) {
	var res engine.RunResult
	var stats engine.ServeStats
	var err error
	switch {
	case r.eng == "mpi" && stream != nil:
		res, stats, err = mpiblast.Serve(r.nodes, r.procs, cfg, r.job, v.mpi, stream.Batches, stream.AdmitCap)
	case r.eng == "mpi":
		res, err = mpiblast.RunOpts(r.nodes, r.procs, cfg, r.job, v.mpi)
	case stream != nil:
		res, stats, err = core.Serve(r.nodes, r.procs, cfg, r.job, v.pio, stream.Batches, stream.AdmitCap)
	default:
		res, err = core.RunConfig(r.nodes, r.procs, cfg, r.job, v.pio)
	}
	return res, stats, err
}

// output returns the result file the run produced.
func (r *rig) output() ([]byte, error) {
	return r.nodes[0].Shared.ReadFile(r.job.OutputPath)
}

// runSpec is one engine execution: a point of the option space, as a value.
// An experiment is the list of them it sweeps.
type runSpec struct {
	// variant names the design choice this run measures. It labels the
	// row, in the engine column too; the paper's figures leave it empty
	// and their rows carry the experiment's label and the engine's name.
	variant     string
	lab         *Lab
	plat        platform
	engineName  string // "mpi" or "pio"
	procs       int
	fragments   int // 0 = natural
	queryBytes  int
	pio         core.Options
	fetchWindow int
	speeds      []float64 // per-rank compute slowdowns; nil = homogeneous
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

// execute runs one spec on a fresh cluster.
func execute(spec runSpec) (Row, error) {
	row := Row{
		Engine:     spec.engineName,
		Procs:      spec.procs,
		Fragments:  spec.fragments,
		QueryBytes: spec.queryBytes,
	}
	queries, err := spec.lab.queries(spec.queryBytes)
	if err != nil {
		return row, err
	}
	r, err := spec.lab.standUp(spec.engineName, spec.procs, spec.plat, spec.fragments, queries)
	if err != nil {
		return row, err
	}
	res, _, err := r.run(mpi.Config{Cost: spec.lab.Cost, Speeds: spec.speeds},
		variant{pio: spec.pio, mpi: mpiblast.Options{FetchWindow: spec.fetchWindow}}, nil)
	if err != nil {
		return row, err
	}
	row.Result = res
	row.OutputBytes = res.OutputBytes
	return row, nil
}

// sweep executes the runs in order, each on a fresh cluster, and labels the
// rows: with label, or with the run's variant name where it has one.
func sweep(label string, runs []runSpec) ([]Row, error) {
	rows := make([]Row, 0, len(runs))
	for _, spec := range runs {
		row, err := execute(spec)
		row.Label = label
		if spec.variant != "" {
			row.Label, row.Engine = spec.variant, spec.variant
		}
		if err != nil {
			return nil, fmt.Errorf("%s %s p=%d frags=%d q=%d: %w", label, row.Engine,
				spec.procs, spec.fragments, spec.queryBytes, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// grid lists the runs on plat at every point of procs × fragments ×
// queryBytes × engines, engines innermost: the shape of every table and
// figure of §4.
func grid(lab *Lab, plat platform, engines []string, procs, fragments, queryBytes []int) []runSpec {
	var runs []runSpec
	for _, p := range procs {
		for _, f := range fragments {
			for _, qb := range queryBytes {
				for _, eng := range engines {
					runs = append(runs, runSpec{
						lab: lab, plat: plat, engineName: eng,
						procs: p, fragments: f, queryBytes: qb,
					})
				}
			}
		}
	}
	return runs
}

// The axes the paper's experiments share: which engines run, natural
// partitioning (one fragment per worker), and the default "150 KB" query set.
var (
	mpiOnly     = []string{"mpi"}
	pioOnly     = []string{"pio"}
	bothEngines = []string{"mpi", "pio"}
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
	return sweep("fig1a", grid(&ntLab, altix(), mpiOnly, []int{16, 32, 64}, natural, lab.defaultQueries()))
}

// Fig1b reproduces Figure 1(b): mpiBLAST's sensitivity to the number of
// pre-generated fragments at 32 processes (paper: 31/61/96/167 fragments;
// both search and non-search time rise with fragment count).
func Fig1b(lab *Lab) ([]Row, error) {
	return sweep("fig1b", grid(lab, altix(), mpiOnly, []int{32}, []int{31, 61, 96, 167}, lab.defaultQueries()))
}

// Table1 reproduces the phase breakdown of both engines at 32 processes
// with the "150 KB" query set and natural partitioning.
func Table1(lab *Lab) ([]Row, error) {
	return sweep("table1", grid(lab, altix(), bothEngines, []int{32}, natural, lab.defaultQueries()))
}

// Table2 reproduces the query-size → output-size map by running the
// pipeline for each query set (the paper reports 26K→11M … 289K→153M).
func Table2(lab *Lab) ([]Row, error) {
	return sweep("table2", grid(lab, altix(), pioOnly, []int{8}, natural, lab.QuerySizes[:]))
}

// Fig3a reproduces Figure 3(a): node scalability of both engines on the
// Altix, 4 → 62 processes.
func Fig3a(lab *Lab) ([]Row, error) {
	return sweep("fig3a", grid(lab, altix(), bothEngines, []int{4, 8, 16, 32, 62}, natural, lab.defaultQueries()))
}

// Fig3b reproduces Figure 3(b): output scalability at 62 processes across
// the four query/output sizes.
func Fig3b(lab *Lab) ([]Row, error) {
	return sweep("fig3b", grid(lab, altix(), bothEngines, []int{62}, natural, lab.QuerySizes[:]))
}

// Fig4 reproduces Figure 4: the same process-scalability study on the
// NFS-based blade cluster, 4 → 32 processes.
func Fig4(lab *Lab) ([]Row, error) {
	return sweep("fig4", grid(lab, blade(), bothEngines, []int{4, 8, 16, 32}, natural, lab.defaultQueries()))
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
	runs := []runSpec{
		{variant: "pio-collective"},
		{variant: "pio-independent", pio: core.Options{IndependentOutput: true}},
		{variant: "pio-coll-nfs", plat: blade()},
		{variant: "pio-indep-nfs", plat: blade(), pio: core.Options{IndependentOutput: true}},
		{variant: "pio-cap10", lab: &cap10},
		{variant: "pio-cap10-prune", lab: &cap10, pio: core.Options{EarlyPrune: true}},
		{variant: "pio-batch4", pio: core.Options{QueryBatch: 4}},
		{variant: "pio-batch16", pio: core.Options{QueryBatch: 16}},
		{variant: "pio-adaptive64K", pio: core.Options{MemoryBudgetBytes: 64 << 10}},
		{variant: "pio-frag62", fragments: 62},
		{variant: "pio-frag124", fragments: 124},
		{variant: "pio-frag248", fragments: 248},
		{variant: "pio-frag124-dyn", fragments: 124, pio: core.Options{DynamicAssignment: true}},
		{variant: "mpi-serial-fetch", engineName: "mpi", fetchWindow: 1},
		{variant: "mpi-fetch-win16", engineName: "mpi", fetchWindow: 16},
	}
	// What a variant leaves unsaid is the Table 1 configuration of pioBLAST.
	for i := range runs {
		r := &runs[i]
		r.procs, r.queryBytes = 32, lab.QuerySizes[2]
		if r.lab == nil {
			r.lab = lab
		}
		if r.plat.name == "" {
			r.plat = altix()
		}
		if r.engineName == "" {
			r.engineName = "pio"
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
	runs := []runSpec{
		{variant: "pio-indep-read", plat: blade()},
		{variant: "pio-coll-read", plat: blade(), pio: core.Options{CollectiveRead: true}},
		{variant: "pio-sync-read", plat: altix()},
		{variant: "pio-prefetch2", plat: altix(), pio: core.Options{PrefetchDepth: 2}},
		{variant: "pio-dyn", plat: altix(), pio: core.Options{DynamicAssignment: true}},
		{variant: "pio-dyn-prefetch", plat: altix(), pio: core.Options{DynamicAssignment: true, PrefetchDepth: 1}},
	}
	for i := range runs {
		r := &runs[i]
		r.lab, r.engineName, r.queryBytes = lab, "pio", lab.QuerySizes[2]
		r.procs, r.fragments = procs, 8*(procs-1)
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
		{variant: "pio-dynamic-hetero", fragments: 2 * (procs - 1), pio: core.Options{DynamicAssignment: true}},
	}
	for i := range runs {
		r := &runs[i]
		r.lab, r.plat, r.engineName = lab, altix(), "pio"
		r.procs, r.queryBytes, r.speeds = procs, lab.QuerySizes[2], speeds
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

// runFaultSpec executes one engine on a fresh cluster with the given fault
// schedule — crashes (mpi layer) and/or transient I/O errors on the shared
// store (vfs layer) — and returns the result plus the produced output bytes.
func (l *Lab) runFaultSpec(eng string, procs int, faults []mpi.Fault, ioPlan *vfs.FaultPlan) (engine.RunResult, []byte, error) {
	// A dedicated platform for the recovery scenario: a SAN-class shared
	// store with enough channels that all workers acquire data in
	// parallel. On the serialized blade NFS the copy phase staggers the
	// workers so much that a victim's recovery work hides in the
	// stragglers' shadow; in lockstep, recovery always lands on the
	// critical path and the wall-time delta is the recovery cost itself.
	// Staging goes to IDE-class node-local disks (the paper's era), which
	// is exactly the medium mpiBLAST must re-write during recovery.
	shared := vfs.Profile{Name: "san", Latency: 1e-3, Bandwidth: 60e6, Channels: 32}
	staging := vfs.Profile{Name: "ide", Latency: 8e-3, Bandwidth: 20e6, Channels: 1}
	queries, err := l.queries(faultQueryBytes)
	if err != nil {
		return engine.RunResult{}, nil, err
	}
	// Natural partitioning, spelled out: one fragment per worker, so the
	// victim loses exactly one partition and the recovery cost is a single
	// clean re-acquire + re-search in both engines.
	r, err := l.standUp(eng, procs, platform{name: "san-ide", shared: shared, local: &staging}, procs-1, queries)
	if err != nil {
		return engine.RunResult{}, nil, err
	}
	if ioPlan != nil {
		// Schedule the plan relative to the RUN's first shared-store access:
		// FirstOp in the plan is run-relative, so shift it past the accesses
		// setup (formatdb, fragment prep) already charged. Injection after
		// setup keeps every faulted ordinal inside the measured run.
		p := *ioPlan
		ops, _, _ := r.nodes[0].Shared.Stats()
		p.FirstOp += ops
		if err := r.nodes[0].Shared.InjectFaults(p); err != nil {
			return engine.RunResult{}, nil, err
		}
	}
	// Arm the recovery protocol in pioBLAST's baseline too, so the overhead
	// isolates recovery work rather than protocol presence.
	res, _, err := r.run(mpi.Config{Cost: l.Cost, Faults: faults}, variant{pio: core.Options{FaultTolerant: true}}, nil)
	if err != nil {
		return engine.RunResult{}, nil, err
	}
	out, err := r.output()
	if err != nil {
		return engine.RunResult{}, nil, err
	}
	return res, out, nil
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
	// The oracle: the sequential engine's output on the same job.
	oracleFS := vfs.MustNew(vfs.RAMDisk())
	seqs, err := workload.SynthesizeDB(lab.DB)
	if err != nil {
		return nil, err
	}
	if _, err := formatdb.Format(oracleFS, "nr", seqs, formatdb.Config{
		Title: "synthetic nr", Kind: lab.DB.Kind,
	}); err != nil {
		return nil, err
	}
	queries, err := lab.queries(faultQueryBytes)
	if err != nil {
		return nil, err
	}
	oracleJob := &engine.Job{
		DBBase: "nr", Queries: queries, Options: lab.Options, OutputPath: "results.out",
	}
	if err := engine.RunSequential(oracleFS, oracleJob); err != nil {
		return nil, err
	}
	oracle, err := oracleFS.ReadFile(oracleJob.OutputPath)
	if err != nil {
		return nil, err
	}

	var rows []FaultRow
	for _, eng := range bothEngines {
		free, freeOut, err := lab.runFaultSpec(eng, procs, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("faults %s baseline: %w", eng, err)
		}
		if !bytes.Equal(freeOut, oracle) {
			return nil, fmt.Errorf("faults %s baseline: output differs from the sequential oracle", eng)
		}
		// Crash the last worker at 75% of the pre-output span (copy + input
		// + search): late enough that its data acquisition is sunk cost —
		// crashing inside the serialized copy/input window would REFUND
		// storage contention to the survivors and mask the recovery cost —
		// but still inside its search work.
		at := 0.75 * (free.Wall - free.Phase.Output)
		crashed, crashedOut, err := lab.runFaultSpec(eng, procs, []mpi.Fault{
			{Rank: procs - 1, At: at, Kind: mpi.FaultCrash},
		}, nil)
		if err != nil {
			return nil, fmt.Errorf("faults %s crash: %w", eng, err)
		}
		rows = append(rows, FaultRow{
			Engine:    eng,
			Procs:     procs,
			CrashAt:   at,
			FaultFree: free.Wall,
			Faulted:   crashed.Wall,
			Overhead:  crashed.Wall - free.Wall,
			Identical: bytes.Equal(crashedOut, oracle),
			Result:    crashed,
		})
		// Transient I/O errors on the shared store (retry + exponential
		// backoff in the vfs layer): output must be unchanged, the cost is
		// pure latency, and the retry/backoff totals surface through
		// engine.RunResult's I/O fault stats.
		ioFaulted, ioOut, err := lab.runFaultSpec(eng, procs, nil, &vfs.FaultPlan{
			FirstOp: 3, Every: 5, Count: 4, Failures: 2, Backoff: 0.002,
		})
		if err != nil {
			return nil, fmt.Errorf("faults %s io: %w", eng, err)
		}
		rows = append(rows, FaultRow{
			Engine:    eng + "+io",
			Procs:     procs,
			FaultFree: free.Wall,
			Faulted:   ioFaulted.Wall,
			Overhead:  ioFaulted.Wall - free.Wall,
			Identical: bytes.Equal(ioOut, oracle),
			Result:    ioFaulted,
		})
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
	countFiles := func(fs *vfs.FS, prefix string) (int, int64) {
		files, bytes := 0, int64(0)
		for _, path := range fs.List() {
			if !strings.HasPrefix(path, prefix) {
				continue
			}
			data, err := fs.ReadFile(path)
			if err == nil {
				files++
				bytes += int64(len(data))
			}
		}
		return files, bytes
	}
	var rows []PrepRow
	for _, workers := range []int{15, 31, 61} {
		fs := vfs.MustNew(vfs.RAMDisk())
		db, err := formatdb.Format(fs, "nr", seqs, formatdb.Config{Kind: lab.DB.Kind, Title: "prep"})
		if err != nil {
			return nil, err
		}
		if _, err := db.PhysicalFragment(fs, workers); err != nil {
			return nil, err
		}
		files, bytes := countFiles(fs, "nr.frag")
		rows = append(rows, PrepRow{
			Label: "mpiformatdb", Workers: workers, Files: files, Bytes: bytes, NeedsRun: true,
		})
	}
	// pioBLAST: one global set, any worker count.
	fs := vfs.MustNew(vfs.RAMDisk())
	if _, err := formatdb.Format(fs, "nr", seqs, formatdb.Config{Kind: lab.DB.Kind, Title: "prep"}); err != nil {
		return nil, err
	}
	files, bytes := countFiles(fs, "nr")
	rows = append(rows, PrepRow{Label: "pioBLAST-global", Workers: 0, Files: files, Bytes: bytes})
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

// PrintRows renders rows as the paper-style table: one line per run with
// the phase split, total, and search share.
func PrintRows(w io.Writer, title string, rows []Row) {
	printTitle(w, title)
	printRowBody(w, rows)
}

// printRowBody is PrintRows below the title: what the catalogue prints under
// the entry's own.
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
