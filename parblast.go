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
// search with either engine — and re-exports the types callers need.
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
	// Fault schedules one deterministic rank failure (see Search.Faults).
	Fault = mpi.Fault
	// FaultKind selects crash vs degrade.
	FaultKind = mpi.FaultKind
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

// Fault kinds.
const (
	// FaultCrash fail-stops the victim at its first MPI operation at or
	// after the scheduled time.
	FaultCrash = mpi.FaultCrash
	// FaultDegrade slows the victim's compute by the Slow factor from the
	// scheduled time on.
	FaultDegrade = mpi.FaultDegrade
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
)

// String names the platform.
func (p Platform) String() string {
	switch p {
	case PlatformAltix:
		return "altix-xfs"
	case PlatformBladeCluster:
		return "blade-nfs"
	case PlatformIdeal:
		return "ideal"
	default:
		return fmt.Sprintf("Platform(%d)", int(p))
	}
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

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineSequential:
		return "sequential"
	case EngineMPIBlast:
		return "mpiBLAST"
	case EnginePioBLAST:
		return "pioBLAST"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Cluster is a simulated parallel machine: ranks, storage, cost model.
type Cluster struct {
	procs   int
	nodes   []*vfs.Node
	cost    simtime.CostModel
	trace   *trace.Collector
	metrics *metrics.Registry
}

// NewCluster builds a cluster of procs ranks on the given platform with
// the default cost model.
func NewCluster(procs int, platform Platform) (*Cluster, error) {
	return NewClusterWithCost(procs, platform, simtime.DefaultCostModel())
}

// NewClusterWithCost builds a cluster with an explicit cost model.
func NewClusterWithCost(procs int, platform Platform, cost CostModel) (*Cluster, error) {
	if procs < 1 {
		return nil, fmt.Errorf("parblast: cluster needs ≥1 process, got %d", procs)
	}
	if err := cost.Validate(); err != nil {
		return nil, err
	}
	var shared vfs.Profile
	var local *vfs.Profile
	switch platform {
	case PlatformAltix:
		shared = vfs.XFSLike()
	case PlatformBladeCluster:
		shared = vfs.NFSLike()
		l := vfs.LocalDisk()
		local = &l
	case PlatformIdeal:
		shared = vfs.RAMDisk()
	default:
		return nil, fmt.Errorf("parblast: unknown platform %v", platform)
	}
	nodes, err := vfs.Cluster(procs, shared, local)
	if err != nil {
		return nil, err
	}
	return &Cluster{procs: procs, nodes: nodes, cost: cost}, nil
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

// Search describes one search run.
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
	// Pio selects pioBLAST variants; ignored by other engines.
	Pio PioOptions
	// Mpi selects mpiBLAST-baseline variants; ignored by other engines.
	Mpi MpiOptions
	// Faults schedules deterministic rank failures (crashes, degrades).
	// Scheduling any fault arms the engines' failure-recovery protocols;
	// fault firings land on the trace timeline as events.
	Faults []Fault
	// NodeSpeeds optionally declares per-rank compute-speed factors
	// (1 = baseline, 2 = twice as slow), modelling heterogeneous nodes.
	NodeSpeeds []float64
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

// mpiConfig is the runtime config of one run: the cluster's cost model,
// registry and collector, the search's speeds and faults.
func (c *Cluster) mpiConfig(s Search) mpi.Config {
	return mpi.Config{Cost: c.cost, Speeds: s.NodeSpeeds, Faults: s.Faults, Metrics: c.metrics, Trace: c.trace}
}

// Run executes the search with the chosen engine and returns the timing
// summary. The result file is written to s.Output on the shared FS.
func (c *Cluster) Run(eng Engine, s Search) (Result, error) {
	if s.DB == nil {
		return Result{}, fmt.Errorf("parblast: search needs a database")
	}
	job := c.job(s)
	cfg := c.mpiConfig(s)
	switch eng {
	case EngineSequential:
		if err := engine.RunSequential(c.nodes[0].Shared, job); err != nil {
			return Result{}, err
		}
		var out int64
		if f, err := c.nodes[0].Shared.Open(s.Output); err == nil {
			out = f.Size()
		}
		return Result{OutputBytes: out}, nil
	case EngineMPIBlast:
		return mpiblast.RunOpts(c.nodes, c.procs, cfg, job, s.Mpi)
	case EnginePioBLAST:
		return core.RunConfig(c.nodes, c.procs, cfg, job, s.Pio)
	default:
		return Result{}, fmt.Errorf("parblast: unknown engine %v", eng)
	}
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
	if s.DB == nil {
		return Result{}, ServeStats{}, fmt.Errorf("parblast: search needs a database")
	}
	job := c.job(s)
	cfg := c.mpiConfig(s)
	switch eng {
	case EngineMPIBlast:
		return mpiblast.Serve(c.nodes, c.procs, cfg, job, s.Mpi, batches, admitCap)
	case EnginePioBLAST:
		return core.Serve(c.nodes, c.procs, cfg, job, s.Pio, batches, admitCap)
	default:
		return Result{}, ServeStats{}, fmt.Errorf("parblast: engine %v cannot serve (streaming needs a warm cluster)", eng)
	}
}

// ReadOutput returns the produced result file.
func (c *Cluster) ReadOutput(path string) ([]byte, error) {
	return c.nodes[0].Shared.ReadFile(path)
}
