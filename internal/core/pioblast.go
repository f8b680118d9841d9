// Package core implements pioBLAST — the paper's contribution: parallel
// BLAST with efficient data access.
//
// Compared to the mpiblast baseline it changes exactly the four things the
// paper's §3 describes:
//
//  1. Direct global database access with DYNAMIC (virtual) partitioning:
//     no physical fragments, no copy stage. The master computes
//     (start offset, end offset) ranges from the global index files and
//     distributes them; each worker reads its contiguous ranges of the
//     shared sequence/header/index files in parallel with MPI-IO-style
//     independent reads, straight into memory buffers that the (slightly
//     modified) search kernel consumes.
//  2. Result caching: workers keep every candidate hit — alignment and
//     subject data — in memory as it is discovered, and render the
//     formatted output block of each candidate locally, so the block's
//     bytes and, crucially, its SIZE are known without master involvement.
//  3. Metadata-only merging: workers submit only identifications, scores,
//     and output sizes. The master merges, selects the global winners, and
//     tells each worker WHICH of its hits qualified — the alignment data
//     never makes a round trip through the master.
//  4. Parallel output: because every record's size is known, the master
//     computes each record's byte range in the single shared output file;
//     workers install file views over those ranges and write their cached
//     blocks with collective (two-phase) writes, while the master
//     contributes the header, summary, and statistics trailer through its
//     own view.
//
// The engine runs in two phases, like the baseline: every worker first
// searches all queries against its virtual fragments, then the ranks run
// the per-query merge/output protocol. The §5 future-work extensions are
// implemented behind Options:
//
//   - EarlyPrune: early score communication — a global score threshold is
//     agreed before rendering, so hopeless candidates are dropped at the
//     workers;
//   - DynamicAssignment: virtual fragments are assigned greedily at run
//     time instead of statically, the load-balancing scheme §5 sketches
//     for heterogeneous nodes or skewed searches;
//   - QueryBatch: several queries share one collective write, the
//     batching §5 proposes for large result volumes;
//   - IndependentOutput: the collective write is replaced by per-rank
//     strided writes (ablation for §3.3).
package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"parblast/internal/blast"
	"parblast/internal/engine"
	"parblast/internal/formatdb"
	"parblast/internal/mpi"
	"parblast/internal/mpiio"
	"parblast/internal/seq"
	"parblast/internal/simtime"
	"parblast/internal/vfs"
)

// Message tags (distinct from the baseline's, below the mpiio space).
const (
	tagResults    = 11
	tagSelect     = 12
	tagPartReq    = 13
	tagPartAssign = 14
	tagReady      = 15 // worker → master: search phase finished (FT sync)
	tagGo         = 16 // master → worker: proceed to output, or re-search parts
)

// Options selects pioBLAST variants.
type Options struct {
	// EarlyPrune enables §5's "early score communication": before
	// rendering a query's blocks, ranks exchange their top scores,
	// compute the global MaxTargetSeqs-th best score, and skip hits that
	// cannot reach the global output. Output is unchanged; work shrinks.
	EarlyPrune bool
	// IndependentOutput replaces the collective write with per-rank
	// independent strided writes — the ablation showing why §3.3 uses
	// collective I/O.
	IndependentOutput bool
	// DynamicAssignment assigns virtual fragments to workers greedily at
	// run time (workers ask the master for the next unsearched fragment)
	// instead of statically. With Fragments > workers this implements the
	// §5 load-balancing scheme for heterogeneous nodes.
	DynamicAssignment bool
	// QueryBatch groups this many queries into one collective write
	// (0 or 1 = per-query output, the default). §5's query batching.
	QueryBatch int
	// CollectiveRead replaces the workers' independent input reads with
	// collective two-phase reads: per database volume, all ranks (master
	// included, with empty views) read the index-array, header, and
	// sequence ranges as three MPI_File_read_all-style operations, so
	// aggregators turn the strided per-partition requests into a few
	// large sieved sequential reads. Static assignment only: with
	// DynamicAssignment the partition→worker map is not known up front,
	// so the combination is rejected.
	CollectiveRead bool
	// PrefetchDepth > 0 overlaps input with search: a worker starts the
	// asynchronous reads of up to this many upcoming partitions before
	// searching the current one, paying max(io, compute) instead of
	// their sum. With DynamicAssignment the pipeline is one partition
	// deep (the greedy protocol assigns one at a time).
	PrefetchDepth int
	// MemoryBudgetBytes, when positive, enables ADAPTIVE batching (§5's
	// "adjust to the amount of available memory"): after the search phase
	// the ranks exchange per-query cached-output volumes and every rank
	// derives the same batch boundaries, packing as many queries per
	// collective write as fit the budget. Set it or QueryBatch > 1, not
	// both: two rules for one boundary are rejected.
	MemoryBudgetBytes int64
	// FaultTolerant enables the worker-failure recovery protocol: a
	// ready/go rendezvous after the search phase in which the master
	// detects dead workers and re-issues their VIRTUAL partitions (offset
	// ranges — no data movement) to survivors. Enabled automatically when
	// the MPI config schedules faults; can be forced on to measure the
	// protocol's fault-free overhead. Detection is paced by
	// simtime.CostModel.FaultDetectInterval but never wrong: a timeout only
	// triggers a ground-truth liveness check.
	FaultTolerant bool
	// TreeMerge replaces the flat worker→master metadata streams with the
	// hierarchical group merge: workers pre-merge their batch metadata up
	// a k-ary reduction tree (the same top-k selection the master runs, so
	// the result is byte-identical) and the master broadcasts the output
	// layout back down the tree. The flat path remains the ablation
	// baseline.
	TreeMerge bool
	// MergeFanout is the reduction-tree fan-out for TreeMerge
	// (0 = mpi.DefaultTreeFanout).
	MergeFanout int
	// IOHints carries MPI-IO hints applied to every shared-file handle
	// the run opens (database volumes and the output file): aggregator
	// count, collective buffer size, sieve gap, and read strategy. The
	// zero value reproduces the layer's built-in heuristics.
	IOHints mpiio.Hints
	// IOTuner, when non-nil, attaches the shared I/O auto-tuner to every
	// input-file handle: collective reads consult it for the strategy/gap
	// decision and feed their measured virtual cost back. The tuner is an
	// in-process object shared by all ranks (like the file system itself),
	// so it rides alongside the job rather than through the broadcast.
	IOTuner *mpiio.Tuner
}

// wireExtent ships one virtual-fragment extent to a worker: the ordinal
// range plus every byte range needed to read it from the shared files.
type wireExtent struct {
	VolBase     string
	From, To    int
	OIDFrom     int
	HdrOff      int64
	HdrLen      int64
	SeqOff      int64
	SeqLen      int64
	HdrArrayPos int64 // file position in .pin of hdrOffsets[From]
	SeqArrayPos int64 // file position in .pin of seqOffsets[From]
}

// jobMeta is the broadcast that seeds every worker. It carries what a worker
// reads and nothing else; what only the master needs stays in masterPlan.
type jobMeta struct {
	Queries  []byte // engine.EncodeWireQueries payload
	NumSeqs  int
	TotalLen int64
	// Parts lists every virtual fragment's extents. With static
	// assignment, part p belongs to worker (p mod workers)+1; with
	// dynamic assignment, parts are handed out greedily at run time.
	Parts       [][]wireExtent
	OutputPath  string
	EarlyPrune  bool
	Independent bool
	Dynamic     bool
	// Collective selects collective two-phase input reads (static
	// assignment only); Prefetch is the input/search overlap depth.
	Collective bool
	Prefetch   int
	QueryBatch int
	MemBudget  int64
	// FT enables the ready/go failure-recovery rendezvous after the search
	// phase.
	FT bool
	// Tree selects the hierarchical metadata merge over the k-ary
	// reduction tree with the given fan-out.
	Tree       bool
	TreeFanout int
	// IOHints is applied to every shared-file handle a rank opens.
	IOHints mpiio.Hints
	// Serve marks a streaming run: Queries is empty, and each batch's
	// queries arrive in a per-batch broadcast instead (see serve.go).
	Serve bool
}

func (m *jobMeta) encode() []byte {
	var w engine.Writer
	w.Blob(m.Queries)
	w.Int(int64(m.NumSeqs))
	w.Int(m.TotalLen)
	w.Uint(uint64(len(m.Parts)))
	for _, part := range m.Parts {
		w.Uint(uint64(len(part)))
		for _, e := range part {
			w.String(e.VolBase)
			w.Int(int64(e.From))
			w.Int(int64(e.To))
			w.Int(int64(e.OIDFrom))
			w.Int(e.HdrOff)
			w.Int(e.HdrLen)
			w.Int(e.SeqOff)
			w.Int(e.SeqLen)
			w.Int(e.HdrArrayPos)
			w.Int(e.SeqArrayPos)
		}
	}
	w.String(m.OutputPath)
	w.Bool(m.EarlyPrune)
	w.Bool(m.Independent)
	w.Bool(m.Dynamic)
	w.Bool(m.Collective)
	w.Int(int64(m.Prefetch))
	w.Int(int64(m.QueryBatch))
	w.Int(m.MemBudget)
	w.Bool(m.FT)
	w.Bool(m.Tree)
	w.Int(int64(m.TreeFanout))
	w.Int(int64(m.IOHints.CbNodes))
	w.Int(m.IOHints.CbBufferSize)
	w.Int(m.IOHints.SieveGap)
	w.Int(int64(m.IOHints.ReadStrategy))
	w.Bool(m.Serve)
	return w.Bytes()
}

func decodeJobMeta(data []byte) (jobMeta, error) {
	r := engine.NewReader(data)
	m := jobMeta{Queries: r.Blob(), NumSeqs: int(r.Int()), TotalLen: r.Int()}
	nParts := int(r.Uint())
	for pi := 0; pi < nParts && r.Err() == nil; pi++ {
		var part []wireExtent
		n := int(r.Uint())
		for i := 0; i < n && r.Err() == nil; i++ {
			part = append(part, wireExtent{
				VolBase:     r.String(),
				From:        int(r.Int()),
				To:          int(r.Int()),
				OIDFrom:     int(r.Int()),
				HdrOff:      r.Int(),
				HdrLen:      r.Int(),
				SeqOff:      r.Int(),
				SeqLen:      r.Int(),
				HdrArrayPos: r.Int(),
				SeqArrayPos: r.Int(),
			})
		}
		m.Parts = append(m.Parts, part)
	}
	m.OutputPath = r.String()
	m.EarlyPrune = r.Bool()
	m.Independent = r.Bool()
	m.Dynamic = r.Bool()
	m.Collective = r.Bool()
	m.Prefetch = int(r.Int())
	m.QueryBatch = int(r.Int())
	m.MemBudget = r.Int()
	m.FT = r.Bool()
	m.Tree = r.Bool()
	m.TreeFanout = int(r.Int())
	m.IOHints = mpiio.Hints{
		CbNodes:      int(r.Int()),
		CbBufferSize: r.Int(),
		SieveGap:     r.Int(),
		ReadStrategy: mpiio.Strategy(r.Int()),
	}
	m.Serve = r.Bool()
	return m, r.Err()
}

// batchMetas is one worker's result metadata for a batch of queries.
type batchMetas struct {
	FirstQuery int
	PerQuery   []engine.QueryMeta
}

func (b *batchMetas) encode() []byte {
	var w engine.Writer
	w.Int(int64(b.FirstQuery))
	w.Uint(uint64(len(b.PerQuery)))
	for _, qm := range b.PerQuery {
		engine.EncodeQueryMeta(&w, qm)
	}
	return w.Bytes()
}

func decodeBatchMetas(data []byte) (batchMetas, error) {
	r := engine.NewReader(data)
	b := batchMetas{FirstQuery: int(r.Int())}
	n := int(r.Uint())
	for i := 0; i < n && r.Err() == nil; i++ {
		b.PerQuery = append(b.PerQuery, engine.DecodeQueryMeta(r))
	}
	return b, r.Err()
}

// selection tells a worker where its chosen blocks land in the output file.
type selection struct {
	Queries []int
	OIDs    []int
	Offsets []int64
	Lengths []int64
}

func (s *selection) encode() []byte {
	var w engine.Writer
	w.Uint(uint64(len(s.OIDs)))
	for i := range s.OIDs {
		w.Int(int64(s.Queries[i]))
		w.Int(int64(s.OIDs[i]))
		w.Int(s.Offsets[i])
		w.Int(s.Lengths[i])
	}
	return w.Bytes()
}

// encodeGo packs a master→worker go message: done flag plus the part
// indices (if any) the worker must re-search on behalf of dead peers. The
// final (done) message also carries the surviving worker list, so every
// rank derives the identical reduction-tree membership for the merge.
func encodeGo(done bool, extras, alive []int) []byte {
	var w engine.Writer
	w.Bool(done)
	w.Uint(uint64(len(extras)))
	for _, pi := range extras {
		w.Int(int64(pi))
	}
	w.Uint(uint64(len(alive)))
	for _, a := range alive {
		w.Int(int64(a))
	}
	return w.Bytes()
}

func decodeGo(data []byte) (done bool, extras, alive []int, err error) {
	r := engine.NewReader(data)
	done = r.Bool()
	n := int(r.Uint())
	for i := 0; i < n && r.Err() == nil; i++ {
		extras = append(extras, int(r.Int()))
	}
	n = int(r.Uint())
	for i := 0; i < n && r.Err() == nil; i++ {
		alive = append(alive, int(r.Int()))
	}
	return done, extras, alive, r.Err()
}

// treeCombiner builds the TreeReduce combiner for batch metadata: decode
// both bundles, merge per query with the master's exact selection rule,
// and charge the merge cost on the COMBINING rank's clock — that
// distribution of merge work off the master's critical path is the whole
// point of the hierarchical merge. Decode failures land in *errp (the
// combiner signature has no error path).
func treeCombiner(r *mpi.Rank, maxTargets int, errp *error) func(a, b []byte) []byte {
	return func(a, b []byte) []byte {
		ba, err := decodeBatchMetas(a)
		if err != nil {
			*errp = err
			return nil
		}
		bb, err := decodeBatchMetas(b)
		if err != nil {
			*errp = err
			return nil
		}
		items := engine.MergeCost(ba.PerQuery, bb.PerQuery)
		r.Advance(float64(items) * r.Cost().MergeItemCost)
		merged := engine.CombineQueryMetas(ba.PerQuery, bb.PerQuery, maxTargets)
		kept := 0
		for _, qm := range merged {
			kept += len(qm.Hits)
		}
		engine.RecordMerge(r.Metrics(), r.ID(), items, kept)
		out := batchMetas{FirstQuery: ba.FirstQuery, PerQuery: merged}
		return out.encode()
	}
}

// encodeSelectionBundle packs every worker's output selection into the one
// payload the layout broadcast carries down the tree. ok=false is the
// abort marker: a member crashed mid-merge and the batch cannot complete.
func encodeSelectionBundle(ok bool, sel []selection, workers []int) []byte {
	var w engine.Writer
	w.Bool(ok)
	if !ok {
		return w.Bytes()
	}
	w.Uint(uint64(len(workers)))
	for _, wk := range workers {
		w.Int(int64(wk))
		w.Blob(sel[wk].encode())
	}
	return w.Bytes()
}

// decodeSelectionBundle extracts this worker's selection from the layout
// broadcast, passing over the other workers' without copying them. ok=false
// reports the master's abort marker.
func decodeSelectionBundle(data []byte, worker int) (sel selection, ok bool, err error) {
	r := engine.NewReader(data)
	if !r.Bool() {
		return selection{}, false, r.Err()
	}
	n := int(r.Uint())
	for i := 0; i < n && r.Err() == nil; i++ {
		if wk := int(r.Int()); wk != worker {
			r.SkipBlob()
			continue
		}
		s, err := decodeSelection(r.Blob())
		return s, true, err
	}
	if r.Err() != nil {
		return selection{}, false, r.Err()
	}
	return selection{}, true, fmt.Errorf("core: layout broadcast misses worker %d", worker)
}

func decodeSelection(data []byte) (selection, error) {
	r := engine.NewReader(data)
	n := int(r.Uint())
	var s selection
	for i := 0; i < n && r.Err() == nil; i++ {
		s.Queries = append(s.Queries, int(r.Int()))
		s.OIDs = append(s.OIDs, int(r.Int()))
		s.Offsets = append(s.Offsets, r.Int())
		s.Lengths = append(s.Lengths, r.Int())
	}
	return s, r.Err()
}

// Run executes pioBLAST on nprocs ranks (rank 0 master, workers 1..n-1).
// The database is the ONE global formatted database — no fragments needed.
func Run(nodes []*vfs.Node, nprocs int, cost simtime.CostModel, job *engine.Job, opts Options) (engine.RunResult, error) {
	return RunConfig(nodes, nprocs, mpi.Config{Cost: cost}, job, opts)
}

// RunConfig is Run with an explicit MPI configuration (heterogeneity, faults,
// telemetry, tracing).
func RunConfig(nodes []*vfs.Node, nprocs int, cfg mpi.Config, job *engine.Job, opts Options) (engine.RunResult, error) {
	mp, err := plan(nodes, nprocs, cfg, job, opts, false)
	if err != nil {
		return engine.RunResult{}, err
	}
	res, _, err := launch(nodes, nprocs, cfg, job, opts.IOTuner, mp, nil)
	return res, err
}

// masterPlan is a validated run as the master holds it: the broadcast that
// seeds every worker, plus what only the master reads and so never travels.
type masterPlan struct {
	meta   jobMeta
	kind   seq.Kind
	dbInfo blast.DBInfo
	// indexBytes is the size of the index files the master reads to compute
	// the partition.
	indexBytes int64
}

// plan validates the options for the run mode and builds the master's plan —
// for RunConfig and Serve alike, so an option one mode cannot honour is
// rejected with a reason instead of being dropped.
func plan(nodes []*vfs.Node, nprocs int, cfg mpi.Config, job *engine.Job, opts Options, serve bool) (masterPlan, error) {
	boot, err := engine.PlanRun("core", nodes, nprocs, cfg, job, opts.TreeMerge, opts.MergeFanout)
	if err != nil {
		return masterPlan{}, err
	}
	if err := opts.IOHints.Validate(); err != nil {
		return masterPlan{}, err
	}
	switch {
	case opts.QueryBatch < 0:
		return masterPlan{}, fmt.Errorf("core: negative query batch %d", opts.QueryBatch)
	case opts.PrefetchDepth < 0:
		return masterPlan{}, fmt.Errorf("core: negative prefetch depth %d", opts.PrefetchDepth)
	case opts.MemoryBudgetBytes < 0:
		return masterPlan{}, fmt.Errorf("core: negative memory budget %d", opts.MemoryBudgetBytes)
	case opts.MemoryBudgetBytes > 0 && opts.QueryBatch > 1:
		return masterPlan{}, fmt.Errorf("core: memory budget %d and query batch %d both set the batch boundaries; choose one", opts.MemoryBudgetBytes, opts.QueryBatch)
	case opts.CollectiveRead && opts.DynamicAssignment:
		return masterPlan{}, fmt.Errorf("core: collective read requires static assignment (the partition→worker map must be known before the read)")
	case serve && opts.DynamicAssignment:
		return masterPlan{}, fmt.Errorf("core: serve mode requires static assignment (partitions must stay resident across batches)")
	case serve && opts.MemoryBudgetBytes > 0:
		return masterPlan{}, fmt.Errorf("core: serve mode does not support adaptive batching (batch boundaries come from the arrival stream)")
	case serve && opts.QueryBatch > 1:
		return masterPlan{}, fmt.Errorf("core: serve mode does not support query batch %d (batch boundaries come from the arrival stream)", opts.QueryBatch)
	}
	shared := nodes[0].Shared
	db, err := formatdb.Open(shared, job.DBBase)
	if err != nil {
		return masterPlan{}, err
	}
	nParts := job.Fragments
	if nParts == 0 {
		nParts = nprocs - 1 // natural partitioning: one per worker
	}
	parts, err := db.Partition(nParts)
	if err != nil {
		return masterPlan{}, err
	}
	wireParts := make([][]wireExtent, len(parts))
	for pi, p := range parts {
		for _, e := range p.Extents {
			v := &db.Volumes[e.Volume]
			wireParts[pi] = append(wireParts[pi], wireExtent{
				VolBase:     v.Base,
				From:        e.From,
				To:          e.To,
				OIDFrom:     e.OIDFrom,
				HdrOff:      e.HdrOff,
				HdrLen:      e.HdrLen,
				SeqOff:      e.SeqOff,
				SeqLen:      e.SeqLen,
				HdrArrayPos: v.HdrOffsetArrayPos(e.From),
				SeqArrayPos: v.SeqOffsetArrayPos(e.From),
			})
		}
	}
	meta := jobMeta{
		NumSeqs:     db.NumSeqs,
		TotalLen:    db.TotalResidues,
		Parts:       wireParts,
		OutputPath:  job.OutputPath,
		EarlyPrune:  opts.EarlyPrune,
		Independent: opts.IndependentOutput,
		Dynamic:     opts.DynamicAssignment,
		Collective:  opts.CollectiveRead,
		Prefetch:    opts.PrefetchDepth,
		QueryBatch:  max(opts.QueryBatch, 1),
		MemBudget:   opts.MemoryBudgetBytes,
		FT:          opts.FaultTolerant || boot.FT,
		Tree:        opts.TreeMerge,
		TreeFanout:  boot.Fanout,
		IOHints:     opts.IOHints,
		Serve:       serve,
	}
	if !serve {
		// A streaming run's queries arrive per batch instead.
		meta.Queries = engine.EncodeWireQueries(engine.PackQueries(job.Queries))
	}
	// The master reads the (small) index files to compute the partition.
	var indexBytes int64
	for _, v := range db.Volumes {
		if f, err := shared.Open(formatdb.IndexPath(v.Base)); err == nil {
			indexBytes += f.Size()
		}
	}
	return masterPlan{
		meta:       meta,
		kind:       db.Kind,
		dbInfo:     blast.DBInfo{Title: db.Title, NumSeqs: db.NumSeqs, TotalLen: db.TotalResidues},
		indexBytes: indexBytes,
	}, nil
}

// launch runs the planned job: rank 0 boots the master and runs its batch
// driver — the serving stream when there is one, else the one-shot batch
// loop — and every other rank runs the worker, which takes its mode from
// the broadcast.
func launch(nodes []*vfs.Node, nprocs int, cfg mpi.Config, job *engine.Job, tuner *mpiio.Tuner, mp masterPlan, stream *engine.Stream) (engine.RunResult, engine.ServeStats, error) {
	var stats engine.ServeStats
	bank, err := blast.NewQueryBank(job.Options)
	if err != nil {
		return engine.RunResult{}, stats, err
	}
	qlat := make([]float64, 0, len(job.Queries))
	res, err := engine.Execute(nodes, nprocs, cfg, job.OutputPath, &qlat, func(r *mpi.Rank) error {
		if r.ID() != 0 {
			return runWorker(r, nodes[r.ID()], job.Options, bank, tuner)
		}
		mb, err := bootMaster(r, nodes[0], job, mp, tuner)
		if err != nil {
			return err
		}
		if stream != nil {
			err = mb.serveStream(stream, bank, &stats, &qlat)
		} else {
			err = mb.oneShot(job.Queries, &qlat)
		}
		if err != nil {
			return err
		}
		r.SetPhase(simtime.PhaseOther)
		r.Barrier()
		return nil
	})
	engine.RecordIndexSharing(cfg.Metrics, bank.Stats())
	return res, stats, err
}

// adaptiveBounds packs queries into batches whose summed cached-output
// volume stays within the budget (every batch holds at least one query).
// All ranks compute this from identical global volumes, so the boundaries
// agree everywhere.
func adaptiveBounds(volumes []int64, budget int64) []int {
	if len(volumes) == 0 {
		return []int{0}
	}
	bounds := []int{0}
	var acc int64
	for q := range volumes {
		if q > bounds[len(bounds)-1] && acc+volumes[q] > budget {
			bounds = append(bounds, q)
			acc = 0
		}
		acc += volumes[q]
	}
	return append(bounds, len(volumes))
}

// exchangeVolumes AllGathers each rank's per-query cached-output volume
// estimates and returns the global per-query totals — the consensus input
// to adaptive batching. The master participates with zeros. Every rank holds
// the same number of queries, and the totals are decoded once per gather and
// shared read-only.
func exchangeVolumes(r *mpi.Rank, local []int64) []int64 {
	var w engine.Writer
	for _, v := range local {
		w.Int(v)
	}
	all := r.AllGather(w.Bytes())
	return mpi.Once(r, "core.batch_volumes", func() []int64 {
		total := make([]int64, len(local))
		for _, data := range all {
			if len(data) == 0 {
				continue // crashed rank: contributes nothing
			}
			rd := engine.NewReader(data)
			for q := range total {
				total[q] += rd.Int()
			}
		}
		return total
	})
}

// bootMaster brings the master up to the point where batches can be merged:
// setup, the index read, the job broadcast, the acquisition stage's master
// half (serving greedy part requests, or joining the workers' collective
// reads with empty views), the post-acquisition recovery rendezvous, and the
// output file. One-shot and serving runs boot identically; serving is
// static-only, so the dynamic branch never runs for it.
func bootMaster(r *mpi.Rank, node *vfs.Node, job *engine.Job, mp masterPlan, tuner *mpiio.Tuner) (*masterBatch, error) {
	meta := mp.meta
	r.SetPhase(simtime.PhaseOther)
	r.Advance(r.Cost().SetupCost)
	r.SetPhase(simtime.PhaseInput)
	r.IO(node.Shared, mp.indexBytes) // read the global index files for partitioning
	r.SetPhase(simtime.PhaseOther)
	r.Bcast(0, meta.encode())

	workers := r.Size() - 1
	mb := &masterBatch{
		r: r, masterPlan: mp, renderOpts: job.Options,
		// Admission: every query of a one-shot run is "in the system" once
		// the job metadata broadcast completes.
		admit:   r.Clock().Now(),
		alive:   engine.WorkerRanks(workers),
		partsOf: make([][]int, workers+1),
	}
	var pending []int
	if meta.Dynamic {
		pending = mb.assignParts()
	} else {
		for pi := range meta.Parts {
			mb.partsOf[pi%workers+1] = append(mb.partsOf[pi%workers+1], pi)
		}
		if meta.Collective {
			// Participate (with empty views) in the workers' collective
			// input reads — three per volume. The master usually serves
			// an aggregator domain here, turning otherwise idle time into
			// useful sequential I/O.
			r.SetPhase(simtime.PhaseInput)
			if _, err := readPartsCollective(r, newFileCache(r, node.Shared, meta.IOHints, tuner), meta, nil); err != nil {
				return nil, err
			}
			r.SetPhase(simtime.PhaseIdle)
		}
	}
	if meta.FT {
		// Recover partitions from workers that crashed while acquiring
		// (and, one-shot, searching) before any batch is merged.
		if err := mb.syncWorkers(pending); err != nil {
			return nil, err
		}
	}

	searcher, err := blast.NewSearcher(job.Options)
	if err != nil {
		return nil, err
	}
	mb.searcher = searcher
	mb.maxTargets = searcher.Options().MaxTargetSeqs
	mb.out = mpiio.OpenOrCreate(r, node.Shared, job.OutputPath)
	if err := mb.out.SetHints(meta.IOHints); err != nil {
		return nil, err
	}
	return mb, nil
}

// assignParts is the master half of greedy run-time assignment (§5): serve
// part requests until every worker has been told "done". Returns the
// partitions reclaimed from workers that crashed meanwhile.
func (mb *masterBatch) assignParts() (pending []int) {
	r, meta := mb.r, mb.meta
	r.SetPhase(simtime.PhaseIdle)
	next := 0
	if !meta.FT {
		for done := 0; done < r.Size()-1; {
			_, from, _ := r.Recv(mpi.AnySource, tagPartReq)
			if next < len(meta.Parts) {
				r.Send(from, tagPartAssign, engine.EncodeInt(next))
				next++
			} else {
				r.Send(from, tagPartAssign, engine.EncodeInt(-1))
				done++
			}
		}
		return nil
	}
	served := make(map[int]bool)
	allServed := func() bool {
		for _, w := range mb.alive {
			if !served[w] {
				return false
			}
		}
		return true
	}
	for !allServed() {
		_, from, _, err := r.RecvTimeout(mpi.AnySource, tagPartReq, r.Cost().FaultDetectInterval())
		if err != nil {
			// Timeout (AnySource never reports a specific failure):
			// check ground truth for crashed workers and reclaim
			// their assignments.
			pending = mb.reapDead(pending)
			continue
		}
		if r.Failed(from) {
			continue // the requester crashed after sending
		}
		if next < len(meta.Parts) {
			mb.partsOf[from] = append(mb.partsOf[from], next)
			r.Send(from, tagPartAssign, engine.EncodeInt(next))
			next++
		} else {
			r.Send(from, tagPartAssign, engine.EncodeInt(-1))
			served[from] = true
		}
	}
	return pending
}

// oneShot is the master's batch driver for a one-shot run: boundaries from
// the fixed batch size or, under a memory budget, from the ranks' agreed
// per-query volumes; every query's latency counts from the job broadcast.
func (mb *masterBatch) oneShot(queries []*seq.Sequence, qlat *[]float64) error {
	r, meta := mb.r, mb.meta
	bounds := fixedBounds(len(queries), meta.QueryBatch)
	if meta.MemBudget > 0 {
		r.SetPhase(simtime.PhaseIdle)
		volumes := exchangeVolumes(r, make([]int64, len(queries)))
		bounds = adaptiveBounds(volumes, meta.MemBudget)
	}
	for b := 0; b+1 < len(bounds); b++ {
		// Stamp the batch ordinal as the trace context: every envelope the
		// master sends for this batch carries it, and receivers propagate it.
		r.SetTraceBatch(b)
		err := mb.mergeBatch(queries, bounds[b], bounds[b+1], func() {
			engine.SettleQuery(r, mb.admit, qlat)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// masterBatch carries the master's cross-batch state: the open output file
// and the running layout offset persist across batches (and, in the serving
// mode, across admitted stream batches), as does the failure detector's
// view of the workers.
type masterBatch struct {
	r *mpi.Rank
	masterPlan
	renderOpts blast.Options
	searcher   *blast.Searcher
	maxTargets int
	out        *mpiio.File
	off        int64
	admit      float64 // master clock when the job broadcast completed
	// alive lists the surviving workers; partsOf records which virtual
	// partitions each is responsible for, so a crashed worker's can be
	// reclaimed and re-issued.
	alive   []int
	partsOf [][]int
}

// mergeBatch runs the master side of one batch over queries[q0:q1]:
// early-prune participation, metadata collection (flat per-worker streams
// or one hierarchical tree reduction), the global merge and output-file
// layout (§3.3, Figure 2), the selection send-back, and the collective
// write. onQueryDone fires as each query's merge completes (in query
// order), on the master's clock — the caller owns the latency baseline and
// the trace context. Shared verbatim by the one-shot run and the serving
// loop, which is what makes streamed output byte-identical to the one-shot
// oracle.
func (mb *masterBatch) mergeBatch(queries []*seq.Sequence, q0, q1 int, onQueryDone func()) error {
	r, meta, alive := mb.r, mb.meta, mb.alive
	workers := r.Size() - 1
	// While the workers finish this batch, the master is parked.
	r.SetPhase(simtime.PhaseIdle)
	if meta.EarlyPrune {
		for q := q0; q < q1; q++ {
			exchangeThreshold(r, nil, mb.maxTargets) // participate, contribute nothing
		}
	}
	// Collect the per-query metadata: either the flat per-worker
	// streams (baseline) or one hierarchical tree reduction whose
	// result is already the globally merged selection.
	var treeMerged []engine.QueryMeta
	perWorker := make([]batchMetas, workers+1)
	if meta.Tree {
		members := engine.TreeMembers(alive)
		// The master contributes an identity bundle covering every
		// query, so the fold always yields the full batch range.
		id := batchMetas{FirstQuery: q0}
		for q := q0; q < q1; q++ {
			id.PerQuery = append(id.PerQuery, engine.QueryMeta{QueryIndex: q})
		}
		var combErr error
		combined, contributors, err := r.TreeReduce(0, meta.TreeFanout, members, id.encode(), treeCombiner(r, mb.maxTargets, &combErr))
		if err != nil {
			return err
		}
		if combErr != nil {
			return combErr
		}
		r.SetPhase(simtime.PhaseOutput)
		if len(contributors) != len(members) {
			// A member crashed mid-merge: its cached blocks are gone
			// and its hits are unrecoverable. Tell the survivors to
			// stand down (the abort marker), then fail cleanly —
			// matching the flat path's output-phase contract.
			r.TreeBcast(0, meta.TreeFanout, members, encodeSelectionBundle(false, nil, nil))
			return fmt.Errorf("core: worker crashed during the hierarchical merge; recovery only covers the search phase")
		}
		bm, err := decodeBatchMetas(combined)
		if err != nil {
			return err
		}
		if len(bm.PerQuery) != q1-q0 {
			return fmt.Errorf("core: tree merge returned %d queries, want %d", len(bm.PerQuery), q1-q0)
		}
		treeMerged = bm.PerQuery
	} else {
		for _, w := range alive {
			data, err := engine.RecvOutputPhase(r, "core", w, tagResults, meta.FT)
			if err != nil {
				return err
			}
			bm, err := decodeBatchMetas(data)
			if err != nil {
				return err
			}
			perWorker[w] = bm
		}
	}

	// Merge metadata and lay out the output file (§3.3, Figure 2).
	r.SetPhase(simtime.PhaseOutput)
	sel := make([]selection, workers+1)
	var masterData []byte
	var view mpiio.View
	for q := q0; q < q1; q++ {
		var merged []engine.HitMeta
		var work blast.WorkCounters
		if meta.Tree {
			// The reduction already applied the global selection rule;
			// the master only lays out the file.
			merged = treeMerged[q-q0].Hits
			work = treeMerged[q-q0].Work
		} else {
			var all []engine.HitMeta
			for _, w := range alive {
				qm := perWorker[w].PerQuery[q-q0]
				all = append(all, qm.Hits...)
				work.Add(qm.Work)
			}
			r.Advance(float64(len(all)) * r.Cost().MergeItemCost)
			merged = engine.MergeHits(all, mb.maxTargets)
			engine.RecordMerge(r.Metrics(), r.ID(), len(all), len(merged))
		}

		query := queries[q]
		header := blast.RenderHeader(mb.renderOpts.OutFormat, mb.kind, query, mb.dbInfo)
		summary := blast.RenderSummary(mb.renderOpts.OutFormat, engine.SummaryResults(merged))
		space := engine.SearchSpaceFor(mb.searcher, query.Len(), meta.TotalLen, meta.NumSeqs)
		footer := blast.RenderFooter(mb.renderOpts.OutFormat, mb.searcher.GappedParams(), space, work)
		r.FormatCost(int64(len(header)+len(summary)+len(footer)) / 8)

		headOff := mb.off
		cur := mb.off + int64(len(header)+len(summary))
		for _, h := range merged {
			s := &sel[h.Worker]
			s.Queries = append(s.Queries, q)
			s.OIDs = append(s.OIDs, h.OID)
			s.Offsets = append(s.Offsets, cur)
			s.Lengths = append(s.Lengths, h.BlockSize)
			cur += h.BlockSize
		}
		masterData = append(masterData, header...)
		masterData = append(masterData, summary...)
		masterData = append(masterData, footer...)
		view.Segments = append(view.Segments,
			mpiio.Segment{Offset: headOff, Length: int64(len(header) + len(summary))},
			mpiio.Segment{Offset: cur, Length: int64(len(footer))})
		mb.off = cur + int64(len(footer))
		onQueryDone()
	}
	if meta.Tree {
		// Layout broadcast down the tree (§3.3): one bundle holding
		// every worker's selection instead of N point-to-point sends.
		r.TreeBcast(0, meta.TreeFanout, engine.TreeMembers(alive), encodeSelectionBundle(true, sel, alive))
	} else {
		for _, w := range alive {
			r.Send(w, tagSelect, sel[w].encode())
		}
	}
	if err := mb.out.SetView(view); err != nil {
		return err
	}
	if meta.Independent {
		if err := mb.out.WriteIndependent(masterData); err != nil {
			return err
		}
		r.Barrier()
		return nil
	}
	return mb.out.WriteCollective(masterData)
}

// reapDead removes crashed workers from the alive list, reclaiming their
// virtual partitions into pending. Safe to call repeatedly: a reclaimed
// worker's partsOf entry is cleared.
func (mb *masterBatch) reapDead(pending []int) []int {
	live := mb.alive[:0]
	for _, w := range mb.alive {
		if mb.r.Failed(w) {
			pending = append(pending, mb.partsOf[w]...)
			mb.partsOf[w] = nil
			continue
		}
		live = append(live, w)
	}
	mb.alive = live
	return pending
}

// syncWorkers runs the master side of the ready/go rendezvous: collect a
// ready message from every live worker (crashes detected by timeout plus
// ground-truth liveness check), re-issue dead workers' virtual partitions
// (pending holds any already reclaimed) to survivors — offsets only, no
// data movement — and repeat until a round completes with nothing left to
// recover. Leaves the final survivor set in mb.alive.
func (mb *masterBatch) syncWorkers(pending []int) error {
	r := mb.r
	r.SetPhase(simtime.PhaseIdle)
	for {
		var survivors []int
		for _, w := range mb.alive {
			if _, err := r.RecvCrashAware(w, tagReady); err != nil {
				pending = append(pending, mb.partsOf[w]...)
				mb.partsOf[w] = nil
				continue
			}
			survivors = append(survivors, w)
		}
		mb.alive = survivors
		if len(mb.alive) == 0 {
			return fmt.Errorf("core: all workers failed; cannot recover")
		}
		if len(pending) == 0 {
			for _, w := range mb.alive {
				r.Send(w, tagGo, encodeGo(true, nil, mb.alive))
			}
			return nil
		}
		// Re-issue the reclaimed partitions round-robin. Recovery is cheap
		// by construction (§3.1): a partition is a set of offset ranges into
		// the shared global database, so survivors just read and re-search
		// those ranges — no fragment files to re-copy.
		r.Metrics().Counter("engine.parts_reissued", r.ID()).Add(int64(len(pending)))
		extra := make(map[int][]int)
		for i, pi := range pending {
			w := mb.alive[i%len(mb.alive)]
			extra[w] = append(extra[w], pi)
			mb.partsOf[w] = append(mb.partsOf[w], pi)
		}
		pending = nil
		for _, w := range mb.alive {
			r.Send(w, tagGo, encodeGo(false, extra[w], nil))
		}
	}
}

// worker is everything a worker keeps across the acquisition, search, and
// output stages — of a one-shot run or, when serving, of the whole stream.
type worker struct {
	r     *mpi.Rank
	meta  jobMeta
	opts  blast.Options
	loop  *engine.SearchLoop
	files *fileCache
	out   *mpiio.File
	// resident holds the acquired fragments in acquisition order — searched
	// as they arrive (one-shot) or once per batch (serving), always in that
	// order, so per-(query, fragment) work counters agree between the modes.
	// pool concatenates their subjects (byOID: OID → index into it): the
	// result cache the output stage renders blocks from.
	resident []*blast.Fragment
	pool     blast.Fragment
	byOID    map[int]int
	// The current query set — the job's, or one stream batch's — with every
	// candidate hit and work counter found for it so far.
	queries []*seq.Sequence
	hits    [][]*blast.SubjectResult
	work    []blast.WorkCounters
	collect func(qi int, res *blast.QueryResult) // record, bound once
	// members is this worker's view of the tree-merge membership: the master
	// and the surviving workers. Without fault tolerance nobody can die and
	// it is the job broadcast's shared list; with it, the final go message of
	// each rendezvous carries the master's survivor list and the worker builds
	// its own.
	members []int
}

// runWorker is the one worker body: boot from the job broadcast, acquire and
// retain this worker's virtual fragments, absorb partitions re-issued from
// crashed peers, then merge and write batch by batch. The broadcast's Serve
// flag picks between the two short drivers over those stages: a one-shot
// worker has its queries up front and searches each fragment the moment it
// is retained; a serving worker only retains, and searches everything
// resident once per stream batch.
func runWorker(r *mpi.Rank, node *vfs.Node, opts blast.Options, bank *blast.QueryBank, tuner *mpiio.Tuner) error {
	r.SetPhase(simtime.PhaseOther)
	r.Advance(r.Cost().SetupCost)
	boot := engine.ReadBroadcast(r, r.Bcast(0, nil), func(data []byte) (jobMeta, []byte, error) {
		m, err := decodeJobMeta(data)
		return m, m.Queries, err
	})
	if boot.Err != nil {
		return boot.Err
	}
	meta, workers := boot.Meta, r.Size()-1
	w := &worker{
		r: r, meta: meta, opts: opts,
		loop:    engine.NewSearchLoop(r, bank, meta.TotalLen, meta.NumSeqs),
		files:   newFileCache(r, node.Shared, meta.IOHints, tuner),
		byOID:   make(map[int]int),
		members: boot.Members,
	}
	w.collect = w.record
	onFrag, reissuePrefetch := w.retain, 0
	if !meta.Serve {
		w.begin(boot.Queries)
		// Re-issued partitions go through the static path too (prefetched
		// when enabled). A serving worker reads them independently: at a
		// rendezvous it has no search to overlap the reads with.
		onFrag, reissuePrefetch = w.retainAndSearch, meta.Prefetch
	}

	var mine []int
	for pi := range meta.Parts {
		if pi%workers == r.ID()-1 {
			mine = append(mine, pi)
		}
	}
	if err := w.acquire(mine, onFrag); err != nil {
		return err
	}
	if meta.FT {
		err := w.rendezvous(func(extras []int) error {
			return w.acquireStatic(extras, reissuePrefetch, onFrag)
		})
		if err != nil {
			return err
		}
	}

	w.out = mpiio.OpenOrCreate(r, node.Shared, meta.OutputPath)
	if err := w.out.SetHints(meta.IOHints); err != nil {
		return err
	}
	var err error
	if meta.Serve {
		err = w.serveStream()
	} else {
		err = w.oneShot()
	}
	if err != nil {
		return err
	}
	r.SetPhase(simtime.PhaseOther)
	r.Barrier()
	return nil
}

// begin installs the query set the following searches and output batches
// work on, with empty hit lists.
func (w *worker) begin(queries []*seq.Sequence) {
	w.queries = queries
	w.loop.Begin(queries)
	w.hits = make([][]*blast.SubjectResult, len(queries))
	w.work = make([]blast.WorkCounters, len(queries))
}

// retain keeps an acquired fragment resident and adds its subjects to the
// result cache's pool.
func (w *worker) retain(frag *blast.Fragment) error {
	w.resident = append(w.resident, frag)
	base := len(w.pool.Subjects)
	w.pool.Subjects = append(w.pool.Subjects, frag.Subjects...)
	for i := base; i < len(w.pool.Subjects); i++ {
		w.byOID[w.pool.Subjects[i].OID] = i
	}
	return nil
}

// retainAndSearch is the one-shot onFrag: retain, then search now.
func (w *worker) retainAndSearch(frag *blast.Fragment) error {
	from := len(w.resident)
	if err := w.retain(frag); err != nil {
		return err
	}
	return w.searchFrags(from)
}

// searchFrags searches the current queries against resident[from:],
// appending hits and work.
func (w *worker) searchFrags(from int) error {
	for _, frag := range w.resident[from:] {
		if err := w.loop.Search(frag, w.collect); err != nil {
			return err
		}
	}
	return nil
}

func (w *worker) record(qi int, res *blast.QueryResult) {
	w.hits[qi] = append(w.hits[qi], res.Hits...)
	w.work[qi].Add(res.Work)
}

// acquire is the acquisition stage: obtain this worker's virtual fragments
// — the fixed list mine, read independently, through the prefetch pipeline,
// or with collective reads; or, under dynamic assignment, whatever the
// master hands out at run time, optionally pipelined one deep — and deliver
// each to onFrag in acquisition order.
func (w *worker) acquire(mine []int, onFrag func(*blast.Fragment) error) error {
	r, meta := w.r, w.meta
	switch {
	case meta.Dynamic && meta.Prefetch > 0:
		// Pipeline the greedy protocol one partition deep: the next
		// assignment is requested — and its reads started — before the
		// current partition is delivered (and, one-shot, searched), so both
		// the master round trip and the input I/O hide behind the search.
		reqPart := func() {
			r.SetPhase(simtime.PhaseIdle)
			r.Send(0, tagPartReq, nil)
		}
		recvAssign := func() (int, error) {
			r.SetPhase(simtime.PhaseIdle)
			data, _, _ := r.Recv(0, tagPartAssign)
			return engine.DecodeInt(data)
		}
		startFetch := func(pi int) (*partFetch, error) {
			reqPart()
			r.SetPhase(simtime.PhaseInput)
			return startPartFetch(w.files, meta.Parts[pi])
		}
		reqPart()
		cur, err := recvAssign()
		if err != nil {
			return err
		}
		var curFetch *partFetch
		if cur >= 0 {
			if curFetch, err = startFetch(cur); err != nil {
				return err
			}
		}
		for cur >= 0 {
			nxt, err := recvAssign()
			if err != nil {
				return err
			}
			var nxtFetch *partFetch
			if nxt >= 0 {
				if nxtFetch, err = startFetch(nxt); err != nil {
					return err
				}
			}
			r.SetPhase(simtime.PhaseInput)
			frag, err := curFetch.finish()
			if err != nil {
				return err
			}
			if err := onFrag(frag); err != nil {
				return err
			}
			cur, curFetch = nxt, nxtFetch
		}
		return nil
	case meta.Dynamic:
		for {
			// The request/assign rendezvous is queueing, not search: the
			// master may be busy serving other workers.
			r.SetPhase(simtime.PhaseIdle)
			r.Send(0, tagPartReq, nil)
			data, _, _ := r.Recv(0, tagPartAssign)
			part, err := engine.DecodeInt(data)
			if err != nil {
				return err
			}
			if part < 0 {
				return nil
			}
			if err := w.readOne(part, onFrag); err != nil {
				return err
			}
		}
	case meta.Collective:
		r.SetPhase(simtime.PhaseInput)
		frags, err := readPartsCollective(r, w.files, meta, mine)
		if err != nil {
			return err
		}
		for _, pi := range mine {
			if err := onFrag(frags[pi]); err != nil {
				return err
			}
		}
		return nil
	default:
		return w.acquireStatic(mine, meta.Prefetch, onFrag)
	}
}

// readOne delivers one partition through an independent read of its
// extents.
func (w *worker) readOne(pi int, onFrag func(*blast.Fragment) error) error {
	w.r.SetPhase(simtime.PhaseInput)
	frag, err := readPart(w.files, w.meta.Parts[pi])
	if err != nil {
		return err
	}
	return onFrag(frag)
}

// acquireStatic delivers a known list of partitions: one independent read
// each, or — with prefetch > 0 — a pipeline keeping the asynchronous reads
// of up to prefetch upcoming partitions in flight while the current one is
// delivered.
func (w *worker) acquireStatic(parts []int, prefetch int, onFrag func(*blast.Fragment) error) error {
	if prefetch == 0 {
		for _, pi := range parts {
			if err := w.readOne(pi, onFrag); err != nil {
				return err
			}
		}
		return nil
	}
	fetches := make([]*partFetch, len(parts))
	next := 0
	for cur := range parts {
		w.r.SetPhase(simtime.PhaseInput)
		for next <= cur+prefetch && next < len(parts) {
			pf, err := startPartFetch(w.files, w.meta.Parts[parts[next]])
			if err != nil {
				return err
			}
			fetches[next] = pf
			next++
		}
		frag, err := fetches[cur].finish()
		fetches[cur] = nil
		if err != nil {
			return err
		}
		if err := onFrag(frag); err != nil {
			return err
		}
	}
	return nil
}

// rendezvous is the worker side of the ready/go rendezvous (fault
// tolerance): report the stage done, then either proceed or hand the
// partitions reclaimed from crashed peers to onExtras, and repeat. The final
// go message carries the survivor list.
func (w *worker) rendezvous(onExtras func(extras []int) error) error {
	r := w.r
	for {
		r.SetPhase(simtime.PhaseIdle)
		r.Send(0, tagReady, nil)
		data, _, _ := r.Recv(0, tagGo)
		done, extras, alive, err := decodeGo(data)
		if err != nil {
			return err
		}
		if err := onExtras(extras); err != nil {
			return err
		}
		if done {
			w.members = engine.TreeMembers(alive)
			return nil
		}
	}
}

// oneShot is the worker's batch driver for a one-shot run; the boundaries
// mirror masterBatch.oneShot.
func (w *worker) oneShot() error {
	r, meta := w.r, w.meta
	bounds := fixedBounds(len(w.queries), meta.QueryBatch)
	if meta.MemBudget > 0 {
		// Adaptive batching (§5): agree on batch boundaries sized to the
		// memory budget, using cheap per-query volume estimates (the
		// alignment panels dominate a block, ≈4 bytes per subject residue
		// in the aligned span).
		r.SetPhase(simtime.PhaseOutput)
		local := make([]int64, len(w.queries))
		for q := range w.queries {
			var est int64
			for _, hit := range w.hits[q] {
				for _, h := range hit.HSPs {
					est += int64(4*(h.SubjTo-h.SubjFrom)) + 256
				}
			}
			local[q] = est
		}
		volumes := exchangeVolumes(r, local)
		bounds = adaptiveBounds(volumes, meta.MemBudget)
	}
	for b := 0; b+1 < len(bounds); b++ {
		r.SetTraceBatch(b)
		if err := w.outputBatch(bounds[b], bounds[b+1]); err != nil {
			return err
		}
	}
	return nil
}

// outputBatch runs the worker side of one batch's merge/output over
// queries[q0:q1]: local hit consolidation, optional early-prune exchange,
// result-caching block rendering (§3.2), metadata submission (flat or
// tree), and the selection-ordered collective write (§3.3). Shared
// verbatim by the one-shot run and the serving loop.
func (w *worker) outputBatch(q0, q1 int) error {
	r, meta, opts, queries, outFile := w.r, w.meta, w.opts, w.queries, w.out
	maxTargets := w.loop.MaxTargets()
	r.SetPhase(simtime.PhaseOutput)
	// Consolidate each query's hits across this worker's parts.
	for q := q0; q < q1; q++ {
		blast.SortHits(w.hits[q])
		if len(w.hits[q]) > maxTargets {
			w.hits[q] = w.hits[q][:maxTargets]
		}
	}
	if meta.EarlyPrune {
		for q := q0; q < q1; q++ {
			scores := make([]int64, 0, len(w.hits[q]))
			for _, h := range w.hits[q] {
				scores = append(scores, int64(h.BestScore()))
			}
			threshold := exchangeThreshold(r, scores, maxTargets)
			kept := w.hits[q][:0]
			for _, h := range w.hits[q] {
				if int64(h.BestScore()) >= threshold {
					kept = append(kept, h)
				}
			}
			w.hits[q] = kept
		}
	}
	// Result caching (§3.2): render candidate blocks into memory and
	// submit metadata only.
	blocks := make(map[[2]int][]byte)
	bm := batchMetas{FirstQuery: q0}
	for q := q0; q < q1; q++ {
		qm := engine.QueryMeta{QueryIndex: q, Work: w.work[q]}
		for _, hit := range w.hits[q] {
			subj := w.pool.Subjects[w.byOID[hit.OID]].Residues
			block := []byte(blast.RenderHit(opts.OutFormat, queries[q], subj, hit, opts.Matrix))
			r.FormatCost(int64(len(block)))
			blocks[[2]int{q, hit.OID}] = block
			qm.Hits = append(qm.Hits, engine.MetaFromResult(r.ID(), hit, int64(len(block))))
		}
		bm.PerQuery = append(bm.PerQuery, qm)
	}
	r.Metrics().Counter("engine.blocks_rendered", r.ID()).Add(int64(len(blocks)))
	var sel selection
	if meta.Tree {
		// Hierarchical merge: fold this worker's metadata into the
		// k-ary reduction (pre-merging the group's bundles locally)
		// and take the layout from the down-tree broadcast.
		var combErr error
		if _, _, err := r.TreeReduce(0, meta.TreeFanout, w.members, bm.encode(), treeCombiner(r, maxTargets, &combErr)); err != nil {
			return err
		}
		if combErr != nil {
			return combErr
		}
		r.SetPhase(simtime.PhaseIdle)
		layout := r.TreeBcast(0, meta.TreeFanout, w.members, nil)
		s, ok, err := decodeSelectionBundle(layout, r.ID())
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("core: merge aborted: a peer crashed during the hierarchical merge")
		}
		sel = s
		r.SetPhase(simtime.PhaseOutput)
	} else {
		r.Send(0, tagResults, bm.encode())

		// Selection: assemble the chosen blocks in offset order and
		// write.
		data, _, _ := r.Recv(0, tagSelect)
		s, err := decodeSelection(data)
		if err != nil {
			return err
		}
		sel = s
	}
	idx := make([]int, len(sel.OIDs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return sel.Offsets[idx[a]] < sel.Offsets[idx[b]] })
	var view mpiio.View
	var buf []byte
	for _, i := range idx {
		key := [2]int{sel.Queries[i], sel.OIDs[i]}
		block, ok := blocks[key]
		if !ok {
			r.Metrics().Counter("engine.cache_misses", r.ID()).Inc()
			return fmt.Errorf("core: master selected unknown hit q=%d OID=%d", key[0], key[1])
		}
		r.Metrics().Counter("engine.cache_hits", r.ID()).Inc()
		if int64(len(block)) != sel.Lengths[i] {
			return fmt.Errorf("core: block size mismatch for q=%d OID=%d: %d vs %d",
				key[0], key[1], len(block), sel.Lengths[i])
		}
		view.Segments = append(view.Segments, mpiio.Segment{Offset: sel.Offsets[i], Length: sel.Lengths[i]})
		buf = append(buf, block...)
		r.MemCopy(int64(len(block)))
	}
	r.Metrics().Counter("engine.blocks_dropped", r.ID()).Add(int64(len(blocks) - len(idx)))
	if err := outFile.SetView(view); err != nil {
		return err
	}
	if meta.Independent {
		if err := outFile.WriteIndependent(buf); err != nil {
			return err
		}
		r.Barrier()
		return nil
	}
	return outFile.WriteCollective(buf)
}

// fixedBounds builds the boundary list for fixed-size batches. Zero
// queries yield the single boundary [0] — no batches — rather than a
// degenerate empty batch.
func fixedBounds(n, b int) []int {
	if n <= 0 {
		return []int{0}
	}
	if b < 1 {
		b = 1
	}
	bounds := []int{0}
	for start := b; start < n; start += b {
		bounds = append(bounds, start)
	}
	return append(bounds, n)
}

// fileCache deduplicates shared-file opens across a worker's partitions:
// each of the three per-volume database files is opened once and the
// handle reused for every extent of every partition, instead of three
// fresh opens per extent.
type fileCache struct {
	r     *mpi.Rank
	fs    *vfs.FS
	hints mpiio.Hints
	tuner *mpiio.Tuner
	open  map[string]*mpiio.File
}

func newFileCache(r *mpi.Rank, fs *vfs.FS, hints mpiio.Hints, tuner *mpiio.Tuner) *fileCache {
	return &fileCache{r: r, fs: fs, hints: hints, tuner: tuner, open: make(map[string]*mpiio.File)}
}

func (c *fileCache) file(path string) (*mpiio.File, error) {
	if f, ok := c.open[path]; ok {
		return f, nil
	}
	f, err := mpiio.Open(c.r, c.fs, path)
	if err != nil {
		return nil, err
	}
	if err := f.SetHints(c.hints); err != nil {
		return nil, err
	}
	f.SetTuner(c.tuner)
	c.open[path] = f
	return f, nil
}

// readPart reads one virtual fragment's extents from the global shared
// files — contiguous independent reads of the index slices, header range,
// and sequence range; no staging copy.
func readPart(files *fileCache, part []wireExtent) (*blast.Fragment, error) {
	frag := &blast.Fragment{}
	for _, e := range part {
		idx, err := files.file(formatdb.IndexPath(e.VolBase))
		if err != nil {
			return nil, err
		}
		count := e.To - e.From
		hdrOffs := formatdb.DecodeOffsets(idx.ReadAt(e.HdrArrayPos, 8*int64(count+1)))
		seqOffs := formatdb.DecodeOffsets(idx.ReadAt(e.SeqArrayPos, 8*int64(count+1)))
		hdrFile, err := files.file(formatdb.HeaderPath(e.VolBase))
		if err != nil {
			return nil, err
		}
		seqFile, err := files.file(formatdb.SeqPath(e.VolBase))
		if err != nil {
			return nil, err
		}
		hdrBuf := hdrFile.ReadContiguous(e.HdrOff, e.HdrLen)
		seqBuf := seqFile.ReadContiguous(e.SeqOff, e.SeqLen)
		recs, err := formatdb.DecodeWithOffsets(e.OIDFrom, hdrOffs, seqOffs, hdrBuf, seqBuf)
		if err != nil {
			return nil, err
		}
		appendRecords(frag, recs)
	}
	return frag, nil
}

func appendRecords(frag *blast.Fragment, recs []formatdb.Record) {
	for _, rec := range recs {
		frag.Subjects = append(frag.Subjects, blast.Subject{
			OID: rec.OID, ID: rec.ID, Defline: rec.Defline, Residues: rec.Residues,
		})
	}
}

// partFetch holds one partition's in-flight asynchronous extent reads:
// four per extent (header-offset array, sequence-offset array, header
// range, sequence range), issued in readPart's order.
type partFetch struct {
	part  []wireExtent
	reads []*mpiio.AsyncRead
}

// startPartFetch issues the asynchronous reads for one partition without
// advancing the worker's clock — the prefetch half of the input/search
// overlap pipeline.
func startPartFetch(files *fileCache, part []wireExtent) (*partFetch, error) {
	pf := &partFetch{part: part}
	for _, e := range part {
		idx, err := files.file(formatdb.IndexPath(e.VolBase))
		if err != nil {
			return nil, err
		}
		hdrFile, err := files.file(formatdb.HeaderPath(e.VolBase))
		if err != nil {
			return nil, err
		}
		seqFile, err := files.file(formatdb.SeqPath(e.VolBase))
		if err != nil {
			return nil, err
		}
		count := int64(e.To - e.From)
		pf.reads = append(pf.reads,
			idx.StartReadAt(e.HdrArrayPos, 8*(count+1)),
			idx.StartReadAt(e.SeqArrayPos, 8*(count+1)),
			hdrFile.StartReadAt(e.HdrOff, e.HdrLen),
			seqFile.StartReadAt(e.SeqOff, e.SeqLen))
	}
	return pf, nil
}

// finish waits out the partition's reads and decodes the fragment —
// byte-for-byte the same result as readPart.
func (pf *partFetch) finish() (*blast.Fragment, error) {
	frag := &blast.Fragment{}
	ri := 0
	next := func() []byte {
		buf := pf.reads[ri].Wait()
		ri++
		return buf
	}
	for _, e := range pf.part {
		hdrOffs := formatdb.DecodeOffsets(next())
		seqOffs := formatdb.DecodeOffsets(next())
		hdrBuf := next()
		seqBuf := next()
		recs, err := formatdb.DecodeWithOffsets(e.OIDFrom, hdrOffs, seqOffs, hdrBuf, seqBuf)
		if err != nil {
			return nil, err
		}
		appendRecords(frag, recs)
	}
	return frag, nil
}

// packRequests merges possibly overlapping or out-of-order byte ranges
// into a valid (sorted, disjoint) view and returns a slicer recovering
// each original range from the buffer a view-based read yields. Adjacent
// partitions share index-array boundary entries, so their ranges overlap
// by one record — exactly what a single rank owning adjacent partitions
// produces.
func packRequests(reqs []mpiio.Segment) (mpiio.View, func(buf []byte, i int) []byte) {
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return reqs[order[a]].Offset < reqs[order[b]].Offset })
	var view mpiio.View
	for _, i := range order {
		s := reqs[i]
		if s.Length == 0 {
			continue
		}
		if n := len(view.Segments); n > 0 {
			last := &view.Segments[n-1]
			if s.Offset <= last.Offset+last.Length {
				if end := s.Offset + s.Length; end > last.Offset+last.Length {
					last.Length = end - last.Offset
				}
				continue
			}
		}
		view.Segments = append(view.Segments, s)
	}
	pos := make([]int64, len(view.Segments))
	var acc int64
	for i, s := range view.Segments {
		pos[i] = acc
		acc += s.Length
	}
	slicer := func(buf []byte, i int) []byte {
		q := reqs[i]
		j := sort.Search(len(view.Segments), func(k int) bool {
			s := view.Segments[k]
			return s.Offset+s.Length > q.Offset
		})
		start := pos[j] + (q.Offset - view.Segments[j].Offset)
		end := start + q.Length
		if end > int64(len(buf)) {
			end = int64(len(buf))
		}
		return buf[start:end]
	}
	return view, slicer
}

// readPartsCollective loads the given partitions with collective two-phase
// reads: for every database volume (in the deterministic order all ranks
// derive from meta.Parts), three ReadCollective calls cover the index
// arrays, header ranges, and sequence ranges of everyone's extents. Ranks
// with no extents in a volume — the master always — participate with empty
// views. Returns one fragment per requested partition, identical to what
// readPart produces.
func readPartsCollective(r *mpi.Rank, files *fileCache, meta jobMeta, mine []int) (map[int]*blast.Fragment, error) {
	var vols []string
	seen := make(map[string]bool)
	for _, part := range meta.Parts {
		for _, e := range part {
			if !seen[e.VolBase] {
				seen[e.VolBase] = true
				vols = append(vols, e.VolBase)
			}
		}
	}
	frags := make(map[int]*blast.Fragment, len(mine))
	type pending struct {
		part int
		e    wireExtent
		recs []formatdb.Record
	}
	for _, pi := range mine {
		frags[pi] = &blast.Fragment{}
	}
	for _, vol := range vols {
		// My extents in this volume, in partition order.
		var exts []pending
		for _, pi := range mine {
			for _, e := range meta.Parts[pi] {
				if e.VolBase == vol {
					exts = append(exts, pending{part: pi, e: e})
				}
			}
		}
		var idxReqs, hdrReqs, seqReqs []mpiio.Segment
		for _, x := range exts {
			arr := 8 * int64(x.e.To-x.e.From+1)
			idxReqs = append(idxReqs,
				mpiio.Segment{Offset: x.e.HdrArrayPos, Length: arr},
				mpiio.Segment{Offset: x.e.SeqArrayPos, Length: arr})
			hdrReqs = append(hdrReqs, mpiio.Segment{Offset: x.e.HdrOff, Length: x.e.HdrLen})
			seqReqs = append(seqReqs, mpiio.Segment{Offset: x.e.SeqOff, Length: x.e.SeqLen})
		}
		readAll := func(path string, reqs []mpiio.Segment) ([]byte, func([]byte, int) []byte, error) {
			f, err := files.file(path)
			if err != nil {
				return nil, nil, err
			}
			view, slicer := packRequests(reqs)
			if err := f.SetView(view); err != nil {
				return nil, nil, err
			}
			buf, err := f.ReadCollective()
			return buf, slicer, err
		}
		idxBuf, idxAt, err := readAll(formatdb.IndexPath(vol), idxReqs)
		if err != nil {
			return nil, err
		}
		hdrBuf, hdrAt, err := readAll(formatdb.HeaderPath(vol), hdrReqs)
		if err != nil {
			return nil, err
		}
		seqBuf, seqAt, err := readAll(formatdb.SeqPath(vol), seqReqs)
		if err != nil {
			return nil, err
		}
		for i, x := range exts {
			hdrOffs := formatdb.DecodeOffsets(idxAt(idxBuf, 2*i))
			seqOffs := formatdb.DecodeOffsets(idxAt(idxBuf, 2*i+1))
			recs, err := formatdb.DecodeWithOffsets(x.e.OIDFrom, hdrOffs, seqOffs,
				hdrAt(hdrBuf, i), seqAt(seqBuf, i))
			if err != nil {
				return nil, err
			}
			appendRecords(frags[x.part], recs)
		}
	}
	return frags, nil
}

// exchangeThreshold implements early score communication: ranks gather
// everyone's candidate scores and return the global k-th best (or a
// sentinel minimum when fewer than k hits exist anywhere). Deterministic
// and identical on every rank (k is the job's cap everywhere), so the host
// decodes and sorts the gathered scores once per gather.
func exchangeThreshold(r *mpi.Rank, scores []int64, k int) int64 {
	buf := make([]byte, 8*len(scores))
	for i, s := range scores {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(s))
	}
	all := r.AllGather(buf)
	return mpi.Once(r, "core.prune_threshold", func() int64 {
		var flat []int64
		for _, d := range all {
			for i := 0; i+8 <= len(d); i += 8 {
				flat = append(flat, int64(binary.LittleEndian.Uint64(d[i:])))
			}
		}
		if len(flat) < k {
			return -1 << 62
		}
		sort.Slice(flat, func(a, b int) bool { return flat[a] > flat[b] })
		return flat[k-1]
	})
}

// AdaptiveBoundsForTest exposes the batch-boundary computation to tests.
func AdaptiveBoundsForTest(volumes []int64, budget int64) []int {
	return adaptiveBounds(volumes, budget)
}

// FixedBoundsForTest exposes the fixed batch-boundary computation to tests.
func FixedBoundsForTest(n, b int) []int {
	return fixedBounds(n, b)
}

// ExchangeThresholdForTest exposes the early-score threshold exchange.
func ExchangeThresholdForTest(r *mpi.Rank, scores []int64, k int) int64 {
	return exchangeThreshold(r, scores, k)
}
