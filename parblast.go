// Package parblast is a from-scratch reproduction of "Efficient Data
// Access for Parallel BLAST" (Lin, Ma, Chandramohan, Geist, Samatova,
// IPDPS 2005) — the pioBLAST system — together with everything it needs to
// run: a BLAST search kernel, a formatdb-equivalent database formatter, a
// simulated MPI runtime with virtual-time accounting, an MPI-IO-style
// collective I/O layer, a cluster storage model, and the mpiBLAST baseline
// the paper compares against.
//
// The package is the public façade: it wires the internal substrates into
// three operations — build a cluster, format a database onto it, and run a
// search with either engine — and re-exports the types callers need. A run
// is also one value, RunSpec: Stage builds its cluster and database, and
// Cluster.Exec runs it.
//
// Quick start:
//
//	cluster, _ := parblast.NewCluster(8, parblast.PlatformAltix)
//	seqs, _ := parblast.SynthesizeDB(parblast.DBConfig{Kind: parblast.Protein, NumSeqs: 500, MeanLen: 300, Seed: 1})
//	db, _ := cluster.FormatDB("nr", seqs, "GenBank-like nr")
//	queries, _ := parblast.SampleQueries(seqs, parblast.QueryConfig{TargetBytes: 4096, MeanLen: 120, Seed: 2})
//	res, _ := cluster.Run(parblast.EnginePioBLAST, parblast.Search{DB: db, Queries: queries, Output: "results.out"})
//	fmt.Println(res.Phase, res.Wall)
package parblast

import (
	"fmt"
	"reflect"
	"strings"

	"parblast/internal/blast"
	"parblast/internal/core"
	"parblast/internal/engine"
	"parblast/internal/formatdb"
	"parblast/internal/metrics"
	"parblast/internal/mpi"
	"parblast/internal/mpiblast"
	"parblast/internal/mpiio"
	"parblast/internal/seq"
	"parblast/internal/simtime"
	"parblast/internal/trace"
	"parblast/internal/vfs"
	"parblast/internal/workload"
)

// Re-exported building blocks. These are aliases, not copies: examples and
// tools work with the same types the internals use.
type (
	// Sequence is one biological sequence (ID, description, residues).
	Sequence = seq.Sequence
	// DBConfig configures synthetic database generation.
	DBConfig = workload.DBConfig
	// QueryConfig configures query sampling.
	QueryConfig = workload.QueryConfig
	// SearchOptions configures the BLAST kernel.
	SearchOptions = blast.Options
	// Result is a run summary: wall time, phase breakdown, output size.
	Result = engine.RunResult
	// Breakdown is a per-phase time split.
	Breakdown = simtime.Breakdown
	// CostModel converts work into virtual seconds.
	CostModel = simtime.CostModel
	// PioOptions selects pioBLAST variants (early pruning, independent
	// output) for ablations.
	PioOptions = core.Options
	// MpiOptions selects mpiBLAST-baseline variants (hierarchical tree
	// merge) for ablations.
	MpiOptions = mpiblast.Options
	// DB describes a formatted database.
	DB = formatdb.DB
	// TraceCollector records per-rank phase timelines (see Cluster.Trace).
	TraceCollector = trace.Collector
	// MetricsRegistry is the unified telemetry registry (see Cluster.Metrics).
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a deterministic point-in-time metrics copy.
	MetricsSnapshot = metrics.Snapshot
	// Fault schedules one deterministic rank crash (see Search.Faults).
	Fault = mpi.Fault
	// IOHints is the MPI-IO info object (read strategy, aggregator count,
	// collective buffer size, sieve gap) applied to every shared-file
	// handle of a pioBLAST run — see PioOptions.IOHints.
	IOHints = mpiio.Hints
	// IOTuner learns I/O hints online and persists them as a versioned
	// artifact — see PioOptions.IOTuner.
	IOTuner = mpiio.Tuner
	// IOHintsArtifact is the persisted learned-hints document.
	IOHintsArtifact = mpiio.HintsArtifact
	// ArrivalConfig configures the open-loop arrival generator for
	// serving-mode runs — see Cluster.Serve.
	ArrivalConfig = workload.ArrivalConfig
	// Batch is one arrival of the open-loop stream: a batch id, an arrival
	// time, and the queries it carries.
	Batch = workload.Batch
	// ServeStats is the admission accounting of a serving-mode run:
	// arrivals, admitted, shed, and per-batch clocks.
	ServeStats = engine.ServeStats
)

// Molecule kinds.
const (
	Protein = seq.Protein
	DNA     = seq.DNA
)

// Report formats.
const (
	FormatPairwise = blast.FormatPairwise
	FormatTabular  = blast.FormatTabular
)

// Batch-size distributions for the arrival generator.
const (
	// BatchSizeFixed: every batch holds exactly BatchMean queries.
	BatchSizeFixed = workload.BatchFixed
	// BatchSizeUniform: uniform in [1, 2·BatchMean-1], mean BatchMean.
	BatchSizeUniform = workload.BatchUniform
	// BatchSizeGeometric: geometric on {1,2,...}, mean BatchMean.
	BatchSizeGeometric = workload.BatchGeometric
)

// Re-exported constructors.
var (
	// SynthesizeDB generates a deterministic synthetic database.
	SynthesizeDB = workload.SynthesizeDB
	// SampleQueries cuts query sets out of a database (the paper's query
	// methodology).
	SampleQueries = workload.SampleQueries
	// DefaultProteinOptions mirrors blastp defaults.
	DefaultProteinOptions = blast.DefaultProteinOptions
	// DefaultDNAOptions mirrors blastn defaults.
	DefaultDNAOptions = blast.DefaultDNAOptions
	// DefaultCostModel is a 2004-era cluster cost model.
	DefaultCostModel = simtime.DefaultCostModel
	// ParseIOStrategy parses a collective-read strategy name
	// ("two-phase", "list-io", "independent"; "" = two-phase).
	ParseIOStrategy = mpiio.ParseStrategy
	// NewIOTuner returns an empty I/O auto-tuner (every key explores).
	NewIOTuner = mpiio.NewTuner
	// LoadIOTuner seeds a tuner from a persisted learned-hints artifact.
	LoadIOTuner = mpiio.LoadTuner
	// ParseIOHintsArtifact parses and validates a learned-hints document.
	ParseIOHintsArtifact = mpiio.ParseHintsArtifact
	// Arrivals generates a seeded open-loop arrival stream over a query set
	// (Poisson, or bursty MMPP with Burst > 1) for Cluster.Serve.
	Arrivals = workload.Arrivals
)

// Platform selects a storage configuration modelled on the paper's two
// testbeds plus an idealized one.
type Platform int

const (
	// PlatformAltix models the ORNL SGI Altix: fast XFS shared storage,
	// no user-accessible node-local disks.
	PlatformAltix Platform = iota
	// PlatformBladeCluster models the NCSU IBM blade cluster: slow NFS
	// shared storage plus node-local disks.
	PlatformBladeCluster
	// PlatformIdeal has near-free storage; useful to isolate protocol
	// costs in ablations.
	PlatformIdeal
	// PlatformSAN is the failure-recovery testbed: a SAN-class shared
	// store with enough channels that all workers acquire data in
	// parallel. On the serialized blade NFS the copy phase staggers the
	// workers so much that a victim's recovery work hides in the
	// stragglers' shadow; in lockstep, recovery always lands on the
	// critical path and the wall-time delta is the recovery cost itself.
	// Staging goes to IDE-class node-local disks (the paper's era), which
	// is exactly the medium mpiBLAST must re-write during recovery.
	PlatformSAN
)

// names is a row of the name tables: the short name the parsers read (the
// CLI's flag values, the experiments' engine column) and the long one
// String prints.
type names struct{ short, long string }

// platforms is the one table of platforms: their names and their storage,
// a shared store plus, unless zero, a local disk on every node.
var platforms = [...]struct {
	names
	shared, local vfs.Profile
}{
	PlatformAltix:        {names{"altix", "altix-xfs"}, vfs.XFSLike(), vfs.Profile{}},
	PlatformBladeCluster: {names{"blade", "blade-nfs"}, vfs.NFSLike(), vfs.LocalDisk()},
	PlatformIdeal:        {names{"ideal", "ideal"}, vfs.RAMDisk(), vfs.Profile{}},
	PlatformSAN: {names{"san", "san-ide"},
		vfs.Profile{Name: "san", Latency: 1e-3, Bandwidth: 60e6, Channels: 32},
		vfs.Profile{Name: "ide", Latency: 8e-3, Bandwidth: 20e6, Channels: 1}},
}

// String names the platform.
func (p Platform) String() string {
	if p < 0 || int(p) >= len(platforms) {
		return fmt.Sprintf("Platform(%d)", int(p))
	}
	return platforms[p].long
}

// ParsePlatform reads a platform's short name: altix, blade, ideal or san.
func ParsePlatform(name string) (Platform, error) {
	var want []string
	for p, row := range platforms {
		if row.short == name {
			return Platform(p), nil
		}
		want = append(want, row.short)
	}
	return 0, fmt.Errorf("parblast: unknown platform %q (want %s)", name, strings.Join(want, ", "))
}

// Engine selects the search implementation.
type Engine int

const (
	// EngineSequential is the single-process reference.
	EngineSequential Engine = iota
	// EngineMPIBlast is the baseline (pre-partitioned fragments,
	// serialized merging, master-only output).
	EngineMPIBlast
	// EnginePioBLAST is the paper's contribution.
	EnginePioBLAST
)

// engines is the one table of engine names.
var engines = [...]names{
	EngineSequential: {"seq", "sequential"},
	EngineMPIBlast:   {"mpi", "mpiBLAST"},
	EnginePioBLAST:   {"pio", "pioBLAST"},
}

// String names the engine.
func (e Engine) String() string { return e.row().long }

// Short is the name ParseEngine reads: seq, mpi or pio.
func (e Engine) Short() string { return e.row().short }

// row is e's row of the table, or its number for both names.
func (e Engine) row() names {
	if e < 0 || int(e) >= len(engines) {
		n := fmt.Sprintf("Engine(%d)", int(e))
		return names{n, n}
	}
	return engines[e]
}

// ParseEngine reads an engine's short name: seq, mpi or pio.
func ParseEngine(name string) (Engine, error) {
	var want []string
	for e, row := range engines {
		if row.short == name {
			return Engine(e), nil
		}
		want = append(want, row.short)
	}
	return 0, fmt.Errorf("parblast: unknown engine %q (want %s)", name, strings.Join(want, ", "))
}

// Cluster is a simulated parallel machine: ranks, storage, cost model.
type Cluster struct {
	procs    int
	platform Platform
	nodes    []*vfs.Node
	cost     simtime.CostModel
	trace    *trace.Collector
	metrics  *metrics.Registry
}

// NewCluster builds a cluster of procs ranks on the given platform with
// the default cost model.
func NewCluster(procs int, platform Platform) (*Cluster, error) {
	return NewClusterWithCost(procs, platform, simtime.DefaultCostModel())
}

// NewClusterWithCost builds a cluster with an explicit cost model.
func NewClusterWithCost(procs int, platform Platform, cost CostModel) (*Cluster, error) {
	if err := checkCluster(procs, platform); err != nil {
		return nil, err
	}
	if err := cost.Validate(); err != nil {
		return nil, err
	}
	p := platforms[platform]
	var local *vfs.Profile
	if p.local != (vfs.Profile{}) {
		local = &p.local
	}
	nodes, err := vfs.Cluster(procs, p.shared, local)
	if err != nil {
		return nil, err
	}
	return &Cluster{procs: procs, platform: platform, nodes: nodes, cost: cost}, nil
}

// checkCluster names what no cluster can be built with: fewer than one
// rank, or a platform outside the table.
func checkCluster(procs int, platform Platform) error {
	if procs < 1 {
		return fmt.Errorf("parblast: cluster needs ≥1 process, got Procs %d", procs)
	}
	if platform < 0 || int(platform) >= len(platforms) {
		return fmt.Errorf("parblast: unknown platform %v", platform)
	}
	return nil
}

// Procs returns the rank count.
func (c *Cluster) Procs() int { return c.procs }

// Trace enables tracing for subsequent runs and returns the collector:
// every rank's phase spans, a mark per fired fault, and one causal flow edge
// per delivered message and per collective contribution/release (render
// the timeline with Render, export it with WriteChromeTrace; the report
// layer computes the exact critical path from the flows). Tracing never
// advances virtual clocks: engine output and every reported time are
// identical with it on or off.
func (c *Cluster) Trace() *TraceCollector {
	if c.trace == nil {
		c.trace = trace.NewCollector()
	}
	return c.trace
}

// TraceFlows is Trace: flows ride every trace. The name is what the frozen
// benchmark (bench/) calls; it goes with benchmark revision 2.
func (c *Cluster) TraceFlows() *TraceCollector { return c.Trace() }

// Metrics enables unified telemetry for subsequent runs and returns the
// registry (snapshot it after a run). Every file system of the cluster is
// attached too, so vfs.* series appear alongside mpi/mpiio/blast/engine
// ones. Metrics never advance virtual clocks: enabling them cannot change
// any reported time.
func (c *Cluster) Metrics() *MetricsRegistry {
	if c.metrics == nil {
		c.metrics = metrics.NewRegistry()
		seen := make(map[*vfs.FS]bool)
		for _, n := range c.nodes {
			for _, fs := range []*vfs.FS{n.Shared, n.Local} {
				if fs == nil || seen[fs] {
					continue
				}
				seen[fs] = true
				fs.SetMetrics(c.metrics)
			}
		}
	}
	return c.metrics
}

// SharedFS exposes the shared file system (reading results, staging data).
func (c *Cluster) SharedFS() *vfs.FS { return c.nodes[0].Shared }

// FormatDB formats sequences into a named database on the shared file
// system (the formatdb step users run once per database).
func (c *Cluster) FormatDB(name string, seqs []*Sequence, title string) (*DB, error) {
	return c.FormatDBVolumes(name, seqs, title, 0)
}

// FormatDBVolumes formats with a maximum volume size, producing a
// multi-volume database as formatdb does for very large inputs (0 = one
// volume). The database takes its molecule kind from the first sequence.
func (c *Cluster) FormatDBVolumes(name string, seqs []*Sequence, title string, volumeMaxResidues int64) (*DB, error) {
	if len(seqs) == 0 {
		return nil, fmt.Errorf("parblast: database %q needs at least one sequence", name)
	}
	for i, s := range seqs {
		if s == nil || s.Alpha == nil {
			return nil, fmt.Errorf("parblast: database %q: sequence %d is nil or has no alphabet", name, i)
		}
	}
	return formatdb.Format(c.nodes[0].Shared, name, seqs, formatdb.Config{
		Title: title, Kind: seqs[0].Alpha.Kind(), VolumeMaxResidues: volumeMaxResidues,
	})
}

// OpenDB loads metadata of a database already present on the shared file
// system (e.g. imported from a directory that cmd/formatdb produced).
func (c *Cluster) OpenDB(name string) (*DB, error) {
	return formatdb.Open(c.nodes[0].Shared, name)
}

// PrepareFragments runs the mpiformatdb pre-partitioning step the baseline
// engine requires (pioBLAST never needs it).
func (c *Cluster) PrepareFragments(dbName string, n int) error {
	_, err := mpiblast.PrepareFragments(c.nodes[0].Shared, dbName, n)
	return err
}

// Search describes one search run. Each parallel engine reads its own options
// block only, so it rejects a non-zero field of the other's by name; the
// sequential engine runs on no ranks and cuts no partitions, so it rejects
// non-zero Fragments, Pio, Mpi, Faults and NodeSpeeds by name.
type Search struct {
	// DB is the formatted database (from FormatDB).
	DB *DB
	// Queries is the query set.
	Queries []*Sequence
	// Output is the result-file path on the shared FS.
	Output string
	// Options configures the kernel; zero value selects defaults matching
	// the database's molecule kind.
	Options SearchOptions
	// Fragments overrides the partition granularity (0 = natural:
	// one fragment per worker).
	Fragments int
	// Pio selects pioBLAST variants; the mpiBLAST engine rejects them.
	Pio PioOptions
	// Mpi selects mpiBLAST-baseline variants; pioBLAST rejects them.
	Mpi MpiOptions
	// Faults schedules deterministic rank crashes.
	// Scheduling any fault arms the engines' failure-recovery protocols;
	// fault firings land on the trace timeline as events.
	Faults []Fault
	// NodeSpeeds optionally declares per-rank compute-speed factors
	// (1 = baseline, 2 = twice as slow), modelling heterogeneous nodes. A
	// short slice leaves the remaining ranks at 1; a zero, negative,
	// non-finite or surplus factor is rejected.
	NodeSpeeds []float64
}

// RunSpec is one run, as a value: an engine on Procs ranks of a platform,
// the search, and for a served run its arrival stream and admission cap.
// Stage builds the cluster a spec runs on and Cluster.Exec runs it; Run and
// Serve are the same dispatch on a cluster the caller built.
type RunSpec struct {
	Engine   Engine
	Procs    int
	Platform Platform
	Search   Search
	// Serve runs the search in streaming mode over Batches under AdmitCap
	// (see Cluster.Serve). Without it the run is one-shot and Batches and
	// AdmitCap must be unset; with it, an empty stream is an error.
	Serve    bool
	Batches  []Batch
	AdmitCap int
}

// Validate names the first field of r the façade refuses: a missing
// database, a field the engine would drop, an unknown engine or platform, a
// stream where none is read, fewer than one rank. It builds no cluster; what
// needs the database's contents the engines' plans reject.
func (r RunSpec) Validate() error {
	s := r.Search
	pioSet, mpiSet := firstSet(s.Pio), firstSet(s.Mpi)
	switch sequential := r.Engine == EngineSequential; {
	case s.DB == nil:
		return fmt.Errorf("parblast: search needs a database: Search.DB is nil")
	case sequential && len(s.Faults) > 0:
		return fmt.Errorf("parblast: the sequential engine has no ranks to fail: Faults must be empty")
	case sequential && len(s.NodeSpeeds) > 0:
		return fmt.Errorf("parblast: the sequential engine has no ranks to slow: NodeSpeeds must be empty")
	case sequential && s.Fragments != 0:
		return fmt.Errorf("parblast: the sequential engine searches the database whole: Fragments must be 0, got %d", s.Fragments)
	case pioSet != "" && r.Engine != EnginePioBLAST:
		return fmt.Errorf("parblast: the %v engine reads no Pio options: Pio.%s must be unset", r.Engine, pioSet)
	case mpiSet != "" && r.Engine != EngineMPIBlast:
		return fmt.Errorf("parblast: the %v engine reads no Mpi options: Mpi.%s must be unset", r.Engine, mpiSet)
	case r.Engine < 0 || int(r.Engine) >= len(engines):
		return fmt.Errorf("parblast: unknown engine %v", r.Engine)
	case r.Serve && sequential:
		return fmt.Errorf("parblast: engine %v cannot serve (streaming needs a warm cluster): Serve must be false", r.Engine)
	case !r.Serve && (r.Batches != nil || r.AdmitCap != 0):
		return fmt.Errorf("parblast: Batches and AdmitCap are a served run's: they need Serve")
	}
	return checkCluster(r.Procs, r.Platform)
}

// firstSet names the first field of the options struct block that is not
// its zero value, or returns "".
func firstSet(block any) string {
	v := reflect.ValueOf(block)
	for i := range v.NumField() {
		if !v.Field(i).IsZero() {
			return v.Type().Field(i).Name
		}
	}
	return ""
}

// job builds the engine job for a search, defaulting kernel options to the
// database's molecule kind.
func (c *Cluster) job(s Search) *engine.Job {
	opts := s.Options
	if opts.Matrix == nil {
		if s.DB.Kind == seq.DNA {
			opts = blast.DefaultDNAOptions()
		} else {
			opts = blast.DefaultProteinOptions()
		}
	}
	return &engine.Job{
		DBBase:     s.DB.Base,
		Queries:    s.Queries,
		Options:    opts,
		OutputPath: s.Output,
		Fragments:  s.Fragments,
	}
}

// Stage builds the cluster spec runs on, puts the database on it through
// load, and returns both, spec's Search.DB set to what load returned. For
// mpiBLAST it then cuts the fragments the run reads: Fragments, or one per
// worker (pioBLAST reads the one set of global files). A spec Validate
// refuses is refused before any fragment is cut.
func Stage(spec RunSpec, cost CostModel, load func(*Cluster) (*DB, error)) (*Cluster, RunSpec, error) {
	c, err := NewClusterWithCost(spec.Procs, spec.Platform, cost)
	if err != nil {
		return nil, spec, err
	}
	if spec.Search.DB, err = load(c); err != nil {
		return nil, spec, err
	}
	if err := spec.Validate(); err != nil {
		return nil, spec, err
	}
	if spec.Engine == EngineMPIBlast {
		if err := c.PrepareFragments(spec.Search.DB.Base, engine.PartCount(spec.Search.Fragments, spec.Procs)); err != nil {
			return nil, spec, err
		}
	}
	return c, spec, nil
}

// Exec runs spec on the cluster, one-shot or served, and returns the
// result, a served run's admission accounting, and the output file. The
// spec's Procs and Platform must be the cluster's.
func (c *Cluster) Exec(spec RunSpec) (Result, ServeStats, []byte, error) {
	res, stats, err := c.run(spec)
	if err != nil {
		return res, stats, nil, err
	}
	out, err := c.ReadOutput(spec.Search.Output)
	return res, stats, out, err
}

// Run executes the search with the chosen engine and returns the timing
// summary. The result file is written to s.Output on the shared FS.
func (c *Cluster) Run(eng Engine, s Search) (Result, error) {
	res, _, err := c.run(RunSpec{Engine: eng, Procs: c.procs, Platform: c.platform, Search: s})
	return res, err
}

// Serve executes the search in streaming mode: the cluster warms up once
// (database loaded, partitions resident), then each arrival batch is
// admitted, searched, and appended to s.Output without reloading anything.
// A positive admitCap bounds the admission queue; batches arriving beyond
// it are deterministically shed (drop-newest). The concatenated output is
// byte-identical to a one-shot Run over the admitted queries in arrival
// order, and per-query latencies are measured from each batch's open-loop
// arrival time.
func (c *Cluster) Serve(eng Engine, s Search, batches []Batch, admitCap int) (Result, ServeStats, error) {
	return c.run(RunSpec{Engine: eng, Procs: c.procs, Platform: c.platform, Search: s,
		Serve: true, Batches: batches, AdmitCap: admitCap})
}

// run is Exec, Run and Serve: validate the spec, then dispatch it to its
// engine, one-shot or serving its stream.
func (c *Cluster) run(r RunSpec) (Result, ServeStats, error) {
	if err := r.Validate(); err != nil {
		return Result{}, ServeStats{}, err
	}
	if r.Procs != c.procs || r.Platform != c.platform {
		return Result{}, ServeStats{}, fmt.Errorf("parblast: the spec is Procs %d on %v, the cluster %d on %v",
			r.Procs, r.Platform, c.procs, c.platform)
	}
	var stream *engine.Stream
	if r.Serve {
		stream = &engine.Stream{Batches: r.Batches, AdmitCap: r.AdmitCap}
	}
	s, job := r.Search, c.job(r.Search)
	cfg := mpi.Config{Cost: c.cost, Speeds: s.NodeSpeeds, Faults: s.Faults, Metrics: c.metrics, Trace: c.trace}
	switch r.Engine {
	case EngineMPIBlast:
		return mpiblast.Run(c.nodes, c.procs, cfg, job, s.Mpi, stream)
	case EnginePioBLAST:
		return core.Run(c.nodes, c.procs, cfg, job, s.Pio, stream)
	}
	if err := engine.RunSequential(c.nodes[0].Shared, job); err != nil {
		return Result{}, ServeStats{}, err
	}
	var out int64
	if f, err := c.nodes[0].Shared.Open(s.Output); err == nil {
		out = f.Size()
	}
	return Result{OutputBytes: out}, ServeStats{}, nil
}

// ReadOutput returns the produced result file.
func (c *Cluster) ReadOutput(path string) ([]byte, error) {
	return c.nodes[0].Shared.ReadFile(path)
}
