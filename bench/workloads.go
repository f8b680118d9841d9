package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"

	"parblast"
)

// workload is one benchmark configuration: a cluster shape, an engine and
// the size of the query sets it searches. Why records what the workload
// exercises that no other does (BENCHMARK.json repeats it).
type workload struct {
	Name      string
	Why       string
	Engine    parblast.Engine
	Procs     int
	Platform  parblast.Platform
	Fragments int // Search.Fragments; 0 = one per worker
	Physical  int // mpiformatdb fragments (mpiBLAST only)
	TreeMerge bool
	// Every query set holds exactly Queries queries of mean length QueryLen
	// totalling between QueryBytes and QueryBytes·(1+sizeTolerance) residues.
	// Queries is the most likely count for that volume (pieces are clipped to
	// their source sequence, so they average 5/6 of QueryLen): a rarer count
	// leaves some seeds without a single acceptable draw.
	Queries    int
	QueryBytes int
	QueryLen   int
	// Serving workloads stream each query set through Cluster.Serve.
	Serve     bool
	Rate      float64 // batches per virtual second
	BatchMean int
	AdmitCap  int
}

// The database every workload searches: the shape of experiments.DefaultLab
// (the paper's nr stand-in), drawn from the benchmark seed.
const (
	dbSeqs    = 600
	dbMeanLen = 300
	dbFamily  = 12
	querySets = 8 // K distinct query sets per run
)

// Inputs are drawn from the seed until they have the stated size, so that
// two seeds give two different inputs of the same size: without this a
// seed moves the database volume by ±4 % and every host-time metric with
// it, and no regression bound below that could hold.
//
// Arrival schedules are drawn from arrivalSeed, not the benchmark seed: the
// traffic pattern is part of the workload and the content varies. With
// seeded schedules the pooled p90 latency moved 11 to 21 % between seeds,
// because the tail of about a hundred queued latencies is a handful of queueing episodes.
const (
	dbSizeTolerance  = 0.005
	sizeTolerance    = 0.02
	arrivalTolerance = 0.03
	maxDraws         = 2000
	arrivalSeed      = 20
)

var workloads = []workload{
	{
		Name: "pio_narrow_8", Engine: parblast.EnginePioBLAST, Procs: 8, Platform: parblast.PlatformAltix,
		Queries: 18, QueryBytes: 4500, QueryLen: 300,
		Why: "Kernel-bound: 8 ranks, blast search and extension dominate host time and mpi is a few percent; moves with kernel work and is the bypass for scheduler and index-sharing changes.",
	},
	{
		Name: "pio_wide_62", Engine: parblast.EnginePioBLAST, Procs: 62, Platform: parblast.PlatformAltix, Fragments: 61,
		Queries: 5, QueryBytes: 1250, QueryLen: 300,
		Why: "The paper's widest point (Fig. 3): per rank x fragment x query index rebuilds, scheduler handoffs and collective writes share host time; the workload index-once-per-job must move.",
	},
	{
		Name: "pio_tree_96", Engine: parblast.EnginePioBLAST, Procs: 96, Platform: parblast.PlatformAltix, TreeMerge: true,
		Queries: 3, QueryBytes: 600, QueryLen: 200,
		Why: "Almost no search: 96 ranks and 3 short queries, so mpi blocking, tree collectives and mpiio planning dominate; the scheduler and collective workload and the bypass for kernel changes.",
	},
	{
		Name: "mpi_nfs_32", Engine: parblast.EngineMPIBlast, Procs: 32, Platform: parblast.PlatformBladeCluster, Fragments: 31, Physical: 31,
		Queries: 9, QueryBytes: 2300, QueryLen: 300,
		Why: "The mpiBLAST baseline on NFS plus local disks (Fig. 4): point-to-point result streaming, master-only writes and fragment copies through vfs; a pioBLAST gain paid for by the baseline shows here.",
	},
	{
		Name: "serve_pio_16", Engine: parblast.EnginePioBLAST, Procs: 16, Platform: parblast.PlatformAltix,
		Queries: 13, QueryBytes: 3200, QueryLen: 300, Serve: true, Rate: 16, BatchMean: 2, AdmitCap: 8,
		Why: "Warm serving path: Poisson arrivals in virtual time, small batches with a broadcast and an index build each; blast and engine in the opposite regime from one big batch, plus latency under queueing.",
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputSeeds are the sub-seeds selected for one benchmark seed: the draws
// that produced inputs of the stated size.
type inputSeeds struct {
	DB       int64
	Sets     [querySets]int64
	Arrivals [querySets]int64
}

// inputs is everything a job reads.
type inputs struct {
	seqs    []*parblast.Sequence
	sets    [querySets][]*parblast.Sequence
	batches [querySets][]parblast.Batch // serving workloads only
}

// subSeed derives the i-th candidate seed of a stream (0 = database,
// 1+k = query set k, 101+k = arrival schedule k) from the benchmark seed.
func subSeed(seed int64, stream, i int) int64 {
	return seed*1_000_003 + int64(stream)*100_003 + int64(i)
}

func dbConfig(seed int64, numSeqs int) parblast.DBConfig {
	return parblast.DBConfig{Kind: parblast.Protein, NumSeqs: numSeqs, MeanLen: dbMeanLen,
		Seed: seed, IDPrefix: "nr", FamilySize: dbFamily}
}

func (w *workload) queryConfig(seed int64) parblast.QueryConfig {
	return parblast.QueryConfig{TargetBytes: w.QueryBytes, MeanLen: w.QueryLen, MutationRate: 0.05, Seed: seed}
}

func (w *workload) arrivalConfig(seed int64) parblast.ArrivalConfig {
	return parblast.ArrivalConfig{Rate: w.Rate, BatchMean: w.BatchMean, Seed: seed}
}

func residues(seqs []*parblast.Sequence) int {
	n := 0
	for _, s := range seqs {
		n += s.Len()
	}
	return n
}

// selectInputs searches the seed's candidate streams for a database of
// numSeqs·dbMeanLen residues (±dbSizeTolerance) and K query sets of the
// workload's size, and — for serving — arrivalSeed's streams for schedules
// whose realised rate is within arrivalTolerance of the nominal one.
func (w *workload) selectInputs(seed int64, numSeqs int) (inputSeeds, error) {
	var sel inputSeeds
	var seqs []*parblast.Sequence
	draw := func(seed int64, stream int, what string, accept func(s int64) (bool, error)) (int64, error) {
		for i := 0; i < maxDraws; i++ {
			s := subSeed(seed, stream, i)
			ok, err := accept(s)
			if err != nil {
				return 0, err
			}
			if ok {
				return s, nil
			}
		}
		return 0, fmt.Errorf("%s: no %s of the stated size in %d draws from seed %d", w.Name, what, maxDraws, seed)
	}
	var err error
	want := float64(numSeqs * dbMeanLen)
	sel.DB, err = draw(seed, 0, "database", func(s int64) (bool, error) {
		cand, err := parblast.SynthesizeDB(dbConfig(s, numSeqs))
		if err != nil {
			return false, err
		}
		seqs = cand
		return math.Abs(float64(residues(cand))-want) <= want*dbSizeTolerance, nil
	})
	if err != nil {
		return sel, err
	}
	for k := 0; k < querySets; k++ {
		var set []*parblast.Sequence
		sel.Sets[k], err = draw(seed, 1+k, "query set", func(s int64) (bool, error) {
			cand, err := parblast.SampleQueries(seqs, w.queryConfig(s))
			if err != nil {
				return false, err
			}
			set = cand
			return len(cand) == w.Queries &&
				float64(residues(cand)) <= float64(w.QueryBytes)*(1+sizeTolerance), nil
		})
		if err != nil {
			return sel, err
		}
		if !w.Serve {
			continue
		}
		sel.Arrivals[k], err = draw(arrivalSeed, 101+k, "arrival schedule", func(s int64) (bool, error) {
			batches, err := parblast.Arrivals(set, w.arrivalConfig(s))
			if err != nil {
				return false, err
			}
			nominal := float64(len(batches)) / w.Rate
			return math.Abs(batches[len(batches)-1].Arrival-nominal) <= nominal*arrivalTolerance, nil
		})
		if err != nil {
			return sel, err
		}
	}
	return sel, nil
}

// buildInputs regenerates the selected inputs. It is the deterministic part
// of set-up, repeated before every job.
func (w *workload) buildInputs(sel inputSeeds, numSeqs int) (*inputs, error) {
	in := &inputs{}
	var err error
	if in.seqs, err = parblast.SynthesizeDB(dbConfig(sel.DB, numSeqs)); err != nil {
		return nil, err
	}
	for k := range in.sets {
		if in.sets[k], err = parblast.SampleQueries(in.seqs, w.queryConfig(sel.Sets[k])); err != nil {
			return nil, err
		}
		if w.Serve {
			if in.batches[k], err = parblast.Arrivals(in.sets[k], w.arrivalConfig(sel.Arrivals[k])); err != nil {
				return nil, err
			}
		}
	}
	return in, nil
}

const (
	dbName     = "nr"
	outputPath = "results.out"
)

// stepFunc wraps one façade call of set-up, so that the traced pass can put
// a span around it.
type stepFunc func(name string, f func() error) error

func direct(_ string, f func() error) error { return f() }

// prepare builds a fresh cluster with the database formatted on it (and
// pre-partitioned for mpiBLAST): the per-job part of set-up.
func (w *workload) prepare(in *inputs, step stepFunc) (c *parblast.Cluster, db *parblast.DB, err error) {
	if err = step("new_cluster", func() error {
		c, err = parblast.NewCluster(w.Procs, w.Platform)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err = step("format_db", func() error {
		db, err = c.FormatDB(dbName, in.seqs, "benchmark nr")
		return err
	}); err != nil {
		return nil, nil, err
	}
	if w.Physical > 0 {
		if err = step("prepare_fragments", func() error { return c.PrepareFragments(dbName, w.Physical) }); err != nil {
			return nil, nil, err
		}
	}
	return c, db, nil
}

// outcome is what one job produced, minus the output bytes.
type outcome struct {
	Result parblast.Result
	Stats  parblast.ServeStats
}

// execute runs query set k on a prepared cluster: the timed part of a job.
func (w *workload) execute(c *parblast.Cluster, db *parblast.DB, in *inputs, k int) (outcome, error) {
	s := parblast.Search{DB: db, Queries: in.sets[k], Output: outputPath, Fragments: w.Fragments}
	s.Pio.TreeMerge = w.TreeMerge
	var o outcome
	var err error
	if w.Serve {
		o.Result, o.Stats, err = c.Serve(w.Engine, s, in.batches[k], w.AdmitCap)
	} else {
		o.Result, err = c.Run(w.Engine, s)
	}
	return o, err
}

// virtualTwin is the part of an outcome that must repeat exactly when the
// same query set runs again: every virtual clock and count.
type virtualTwin struct {
	Wall        float64
	Phase       parblast.Breakdown
	Latencies   []float64
	OutputBytes int64
	Comm        [4]int64
	Stats       parblast.ServeStats
}

func (o outcome) twin() virtualTwin {
	r := o.Result
	return virtualTwin{r.Wall, r.Phase, r.QueryLatencies, r.OutputBytes,
		[4]int64{r.CommBytes, r.ShuffleBytes, r.CollectiveBytes, r.CommMessages}, o.Stats}
}

// admitted returns the queries a serving job searched, in arrival order:
// every batch the admission queue did not shed.
func admitted(batches []parblast.Batch, shedSeqs []int) []*parblast.Sequence {
	shed := make(map[int]bool, len(shedSeqs))
	for _, s := range shedSeqs {
		shed[s] = true
	}
	var out []*parblast.Sequence
	for _, b := range batches {
		if !shed[b.Seq] {
			out = append(out, b.Queries...)
		}
	}
	return out
}

// sequentialOutput runs the single-process reference engine over the
// queries: the byte oracle every parallel job is compared with.
func sequentialOutput(seqs, queries []*parblast.Sequence) ([]byte, error) {
	c, err := parblast.NewCluster(1, parblast.PlatformIdeal)
	if err != nil {
		return nil, err
	}
	db, err := c.FormatDB(dbName, seqs, "benchmark nr")
	if err != nil {
		return nil, err
	}
	if _, err := c.Run(parblast.EngineSequential, parblast.Search{DB: db, Queries: queries, Output: outputPath}); err != nil {
		return nil, err
	}
	return c.ReadOutput(outputPath)
}

// verifier holds the oracles and first-run twins of one pass and decides
// whether a job failed.
type verifier struct {
	w       *workload
	in      *inputs
	oracles [querySets][]byte
	first   [querySets]*outcome
}

// check compares a finished job with its oracle and its twin and returns
// the reason it failed, or nil.
func (v *verifier) check(k int, o outcome, output []byte) error {
	want := v.oracles[k]
	if v.w.Serve {
		st := o.Stats
		if st.Admitted+st.Shed != st.Arrivals || st.Arrivals != len(v.in.batches[k]) {
			return fmt.Errorf("set %d: admitted %d + shed %d != arrived %d (of %d batches)",
				k, st.Admitted, st.Shed, st.Arrivals, len(v.in.batches[k]))
		}
		if st.Shed > 0 {
			var err error
			if want, err = sequentialOutput(v.in.seqs, admitted(v.in.batches[k], st.ShedSeqs)); err != nil {
				return fmt.Errorf("set %d: oracle over admitted queries: %w", k, err)
			}
		}
	}
	if !bytes.Equal(output, want) {
		return fmt.Errorf("set %d: output (%d bytes) differs from the sequential oracle (%d bytes)", k, len(output), len(want))
	}
	if o.Result.Wall <= 0 || len(o.Result.QueryLatencies) == 0 {
		return fmt.Errorf("set %d: run reported no virtual time", k)
	}
	if v.first[k] == nil {
		v.first[k] = &o
		return nil
	}
	if !reflect.DeepEqual(o.twin(), v.first[k].twin()) {
		return fmt.Errorf("set %d: virtual numbers differ from the first job of the same query set", k)
	}
	return nil
}
