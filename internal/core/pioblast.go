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
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
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
	// their sum. With DynamicAssignment the depth is at most 1: the master
	// assigns one partition per request, so a deeper plan is rejected.
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
	// protocol's fault-free overhead. How often detection polls is the
	// world's call (mpi.Rank.DetectInterval): with a fault scheduled it is
	// paced by the cost model and never wrong, since a timeout only triggers
	// a ground-truth liveness check; forced on without one, the rendezvous
	// receives simply block.
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
	// zero value reproduces the layer's built-in heuristics. Only collective
	// reads read the last three, so they need CollectiveRead; the aggregator
	// count needs a collective read or write (no IndependentOutput).
	IOHints mpiio.Hints
	// IOTuner, when non-nil, attaches the shared I/O auto-tuner to every
	// input-file handle: collective reads consult it for the strategy/gap
	// decision and feed their measured virtual cost back, so it needs
	// CollectiveRead. The tuner is an in-process object shared by all ranks
	// (like the file system itself), so it rides alongside the job rather
	// than through the broadcast.
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
	// assignment, each worker owns its engine.StaticShare; with dynamic
	// assignment, parts are handed out greedily at run time.
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

func (m *jobMeta) code(c *engine.Codec) *engine.Codec {
	c.Blob(&m.Queries)
	c.Int(&m.NumSeqs)
	c.Int64(&m.TotalLen)
	for i := range engine.Len(c, &m.Parts) {
		part := &m.Parts[i]
		for j := range engine.Len(c, part) {
			e := &(*part)[j]
			c.String(&e.VolBase)
			c.Int(&e.From)
			c.Int(&e.To)
			c.Int(&e.OIDFrom)
			c.Int64(&e.HdrOff)
			c.Int64(&e.HdrLen)
			c.Int64(&e.SeqOff)
			c.Int64(&e.SeqLen)
			c.Int64(&e.HdrArrayPos)
			c.Int64(&e.SeqArrayPos)
		}
	}
	c.String(&m.OutputPath)
	c.Bool(&m.EarlyPrune)
	c.Bool(&m.Independent)
	c.Bool(&m.Dynamic)
	c.Bool(&m.Collective)
	c.Int(&m.Prefetch)
	c.Int(&m.QueryBatch)
	c.Int64(&m.MemBudget)
	c.Bool(&m.FT)
	c.Bool(&m.Tree)
	c.Int(&m.TreeFanout)
	c.Int(&m.IOHints.CbNodes)
	c.Int64(&m.IOHints.CbBufferSize)
	c.Int64(&m.IOHints.SieveGap)
	c.Int((*int)(&m.IOHints.ReadStrategy))
	c.Bool(&m.Serve)
	return c
}

func (m *jobMeta) encode() []byte { return m.code(new(engine.Codec)).Bytes() }

// batchMetas is one worker's result metadata for a batch of queries.
type batchMetas struct {
	FirstQuery int
	PerQuery   []engine.QueryMeta
}

func (b *batchMetas) code(c *engine.Codec) *engine.Codec {
	c.Int(&b.FirstQuery)
	engine.CodeQueryMetas(c, &b.PerQuery)
	return c
}

func (b *batchMetas) encode() []byte { return b.code(new(engine.Codec)).Bytes() }

// selection tells a worker where its chosen blocks land in the output file.
type selection struct {
	Queries []int
	OIDs    []int
	Offsets []int64
	Lengths []int64
}

func (s *selection) code(c *engine.Codec) *engine.Codec {
	n := engine.Len(c, &s.OIDs)
	engine.Size(c, &s.Queries, n)
	engine.Size(c, &s.Offsets, n)
	engine.Size(c, &s.Lengths, n)
	for i := range n {
		c.Int(&s.Queries[i])
		c.Int(&s.OIDs[i])
		c.Int64(&s.Offsets[i])
		c.Int64(&s.Lengths[i])
	}
	return c
}

func (s *selection) encode() []byte { return s.code(new(engine.Codec)).Bytes() }

// goMsg is a master→worker go message: the done flag plus the part indices
// (if any) the worker must re-search on behalf of dead peers. The final
// (done) message also carries the surviving worker list, so every rank
// derives the identical reduction-tree membership for the merge.
type goMsg struct {
	Done          bool
	Extras, Alive []int
}

func (m *goMsg) code(c *engine.Codec) *engine.Codec {
	c.Bool(&m.Done)
	c.Ints(&m.Extras)
	c.Ints(&m.Alive)
	return c
}

func (m goMsg) encode() []byte { return m.code(new(engine.Codec)).Bytes() }

// treeCombiner builds the TreeReduce combiner for batch metadata: decode
// both bundles, merge per query with the master's exact selection rule,
// and charge the merge cost on the COMBINING rank's clock — that
// distribution of merge work off the master's critical path is the whole
// point of the hierarchical merge. Decode failures land in *errp (the
// combiner signature has no error path).
func treeCombiner(r *mpi.Rank, maxTargets int, errp *error) func(a, b []byte) []byte {
	return func(a, b []byte) []byte {
		var ba, bb batchMetas
		ca, cb := engine.Decoder(a), engine.Decoder(b)
		if err := ba.code(&ca).Err(); err != nil {
			*errp = err
			return nil
		}
		if err := bb.code(&cb).Err(); err != nil {
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
		// The fold is no longer than its two inputs together.
		out := batchMetas{FirstQuery: ba.FirstQuery, PerQuery: merged}
		c := engine.Encoder(len(a) + len(b))
		return out.code(&c).Bytes()
	}
}

// encodeSelectionBundle packs every worker's output selection into the one
// payload the layout broadcast carries down the tree. ok=false is the
// abort marker: a member crashed mid-merge and the batch cannot complete.
func encodeSelectionBundle(ok bool, sel []selection, workers []int) []byte {
	var c engine.Codec
	if c.Bool(&ok); !ok {
		return c.Bytes()
	}
	for i := range engine.Len(&c, &workers) {
		own := sel[workers[i]].encode()
		c.Int(&workers[i])
		c.Blob(&own)
	}
	return c.Bytes()
}

// decodeSelectionBundle extracts this worker's selection from the layout
// broadcast, passing over the other workers' without copying them. ok=false
// reports the master's abort marker.
func decodeSelectionBundle(data []byte, worker int) (sel selection, ok bool, err error) {
	c := engine.Decoder(data)
	if c.Bool(&ok); !ok {
		return selection{}, false, c.Err()
	}
	for range c.Count(0) {
		var wk int
		if c.Int(&wk); wk != worker {
			c.SkipBlob()
			continue
		}
		var own []byte
		c.Blob(&own)
		d := engine.Decoder(own)
		return sel, true, sel.code(&d).Err()
	}
	if c.Err() != nil {
		return selection{}, false, c.Err()
	}
	return selection{}, true, fmt.Errorf("core: layout broadcast misses worker %d", worker)
}

// Run executes pioBLAST on nprocs ranks (rank 0 master, workers 1..n-1)
// under the MPI configuration cfg (cost model, heterogeneity, faults,
// telemetry, tracing). The database is the ONE global formatted database —
// no fragments needed. A nil stream is a one-shot run; otherwise the cluster
// serves the stream (serve.go) and ServeStats carries its per-batch
// accounting and shed set. Rank 0 boots the master and runs its batch driver;
// every other rank runs the worker, which takes its mode from the broadcast.
func Run(nodes []*vfs.Node, nprocs int, cfg mpi.Config, job *engine.Job, opts Options, stream *engine.Stream) (engine.RunResult, engine.ServeStats, error) {
	var stats engine.ServeStats
	mp, err := plan(nodes, nprocs, cfg, job, opts, stream)
	if err != nil {
		return engine.RunResult{}, stats, err
	}
	res, err := engine.Launch(nodes, nprocs, cfg, job, func(r *mpi.Rank, bank *blast.QueryBank, qlat *[]float64) error {
		if r.ID() != 0 {
			return runWorker(r, nodes[r.ID()], job.Options, bank, opts.IOTuner)
		}
		mb, err := bootMaster(r, nodes[0], job, mp, opts.IOTuner)
		if err != nil {
			return err
		}
		if stream != nil {
			return mb.serveStream(stream, bank, &stats, qlat)
		}
		return mb.oneShot(job.Queries, qlat)
	})
	return res, stats, err
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

// plan validates the options for the run mode (serving when stream is
// non-nil) and builds the master's plan, so an option the run cannot honour —
// or would not read — is rejected with a reason instead of being dropped.
func plan(nodes []*vfs.Node, nprocs int, cfg mpi.Config, job *engine.Job, opts Options, stream *engine.Stream) (masterPlan, error) {
	boot, err := engine.PlanRun("core", nodes, nprocs, cfg, job, opts.TreeMerge, opts.MergeFanout, stream)
	if err != nil {
		return masterPlan{}, err
	}
	if err := opts.IOHints.Validate(); err != nil {
		return masterPlan{}, err
	}
	serve, h, coll := stream != nil, opts.IOHints, opts.CollectiveRead
	// Only ReadCollective reads the strategy, the sieve gap, the buffer size
	// (which caps the gap) and the tuner; WriteCollective also reads CbNodes.
	const readOnlyCollective = "core: %s is read only by collective reads: it needs CollectiveRead"
	switch {
	case !coll && h.ReadStrategy != 0:
		return masterPlan{}, fmt.Errorf(readOnlyCollective, "IOHints.ReadStrategy")
	case !coll && h.SieveGap != 0:
		return masterPlan{}, fmt.Errorf(readOnlyCollective, "IOHints.SieveGap")
	case !coll && h.CbBufferSize != 0:
		return masterPlan{}, fmt.Errorf(readOnlyCollective, "IOHints.CbBufferSize")
	case !coll && opts.IOTuner != nil:
		return masterPlan{}, fmt.Errorf(readOnlyCollective, "IOTuner")
	case !coll && h.CbNodes != 0 && opts.IndependentOutput:
		return masterPlan{}, fmt.Errorf("core: IOHints.CbNodes caps the aggregators of collective reads and writes: with IndependentOutput and no CollectiveRead none runs")
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
	case opts.DynamicAssignment && opts.PrefetchDepth > 1:
		return masterPlan{}, fmt.Errorf("core: dynamic assignment prefetches at most one partition (the master assigns one per request); prefetch depth %d", opts.PrefetchDepth)
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
	parts, err := db.Partition(engine.PartCount(job.Fragments, nprocs))
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
	var c engine.Codec
	for q := range local {
		c.Int64(&local[q])
	}
	all := r.AllGather(c.Bytes())
	return mpi.Once(r, "core.batch_volumes", func() []int64 {
		total := make([]int64, len(local))
		for _, data := range all {
			if len(data) == 0 {
				continue // crashed rank: contributes nothing
			}
			d := engine.Decoder(data)
			for q := range total {
				var v int64
				d.Int64(&v)
				total[q] += v
			}
		}
		return total
	})
}

// bootMaster brings the master up to the point where batches can be merged:
// the index read, the job broadcast, the acquisition stage's master half
// (serving greedy part requests, or joining the workers' collective reads
// with empty views), the post-acquisition recovery rendezvous, and the
// output file. One-shot and serving runs boot identically; serving is
// static-only, so the dynamic branch never runs for it.
func bootMaster(r *mpi.Rank, node *vfs.Node, job *engine.Job, mp masterPlan, tuner *mpiio.Tuner) (*masterBatch, error) {
	meta := mp.meta
	r.SetPhase(simtime.PhaseInput)
	r.IO(node.Shared, mp.indexBytes) // read the global index files for partitioning
	r.SetPhase(simtime.PhaseOther)
	r.Bcast(0, meta.encode())

	workers := r.Size() - 1
	mb := &masterBatch{
		r: r, masterPlan: mp, renderOpts: job.Options,
		// Admission: every query of a one-shot run is "in the system" once
		// the job metadata broadcast completes.
		admit: r.Clock().Now(),
		own:   engine.NewLedger(workers),
	}
	var pending []int
	if meta.Dynamic {
		pending = mb.assignParts()
	} else {
		for w := 1; w <= workers; w++ {
			mb.own.Give(w, engine.StaticShare(len(meta.Parts), workers, w)...)
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
// part requests until every live worker has been told "done". Returns the
// partitions reclaimed from workers that crashed meanwhile.
func (mb *masterBatch) assignParts() (pending []int) {
	r, meta := mb.r, mb.meta
	r.SetPhase(simtime.PhaseIdle)
	next := 0
	served := make(map[int]bool) // live workers told "done"
	for len(served) < len(mb.own.Alive()) {
		_, from, _, err := r.RecvTimeout(mpi.AnySource, tagPartReq, r.DetectInterval())
		if err != nil {
			// Timeout (AnySource never reports a specific failure):
			// check ground truth for crashed workers and reclaim
			// their assignments.
			mb.own.Reap(r.Failed, func(w int, parts []int) {
				pending = append(pending, parts...)
				delete(served, w)
			})
			continue
		}
		if r.Failed(from) {
			continue // the requester crashed after sending
		}
		if next < len(meta.Parts) {
			mb.own.Give(from, next)
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
// mode, across admitted stream batches), as does the ownership ledger — the
// surviving workers and the virtual partitions each is responsible for, so a
// crashed worker's can be reclaimed and re-issued.
type masterBatch struct {
	r *mpi.Rank
	masterPlan
	renderOpts blast.Options
	searcher   *blast.Searcher
	maxTargets int
	out        *mpiio.File
	off        int64
	admit      float64 // master clock when the job broadcast completed
	own        *engine.Ledger
	// sel, data and segs are a batch's selections and the master's own
	// write, reused batch to batch: each is sent or written before the next.
	sel  []selection
	data []byte
	segs []mpiio.Segment
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
	r, meta, alive := mb.r, mb.meta, mb.own.Alive()
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
	var perWorker []batchMetas
	if meta.Tree {
		members := engine.TreeMembers(alive)
		// The master contributes an identity bundle covering every
		// query, so the fold always yields the full batch range.
		id := batchMetas{FirstQuery: q0, PerQuery: make([]engine.QueryMeta, 0, q1-q0)}
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
		var bm batchMetas
		c := engine.Decoder(combined)
		if err := bm.code(&c).Err(); err != nil {
			return err
		}
		if len(bm.PerQuery) != q1-q0 {
			return fmt.Errorf("core: tree merge returned %d queries, want %d", len(bm.PerQuery), q1-q0)
		}
		treeMerged = bm.PerQuery
	} else {
		perWorker = make([]batchMetas, workers+1)
		for _, w := range alive {
			data, err := engine.RecvOutputPhase(r, "core", w, tagResults)
			if err != nil {
				return err
			}
			c := engine.Decoder(data)
			if err := perWorker[w].code(&c).Err(); err != nil {
				return err
			}
		}
	}

	// Merge metadata and lay out the output file (§3.3, Figure 2).
	r.SetPhase(simtime.PhaseOutput)
	mb.sel = slices.Grow(mb.sel[:0], workers+1)[:workers+1]
	for i := range mb.sel {
		s := &mb.sel[i]
		*s = selection{Queries: s.Queries[:0], OIDs: s.OIDs[:0], Offsets: s.Offsets[:0], Lengths: s.Lengths[:0]}
	}
	sel, masterData, segs := mb.sel, mb.data[:0], mb.segs[:0]
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
		segs = append(segs,
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
	mb.data, mb.segs = masterData, segs
	if err := mb.out.SetView(mpiio.View{Segments: segs}); err != nil {
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

// syncWorkers runs the master side of the ready/go rendezvous: collect a
// ready message from every live worker (crashes detected by timeout plus
// ground-truth liveness check), re-issue dead workers' virtual partitions
// (pending holds any already reclaimed) to survivors — offsets only, no
// data movement — and repeat until a round completes with nothing left to
// recover. Leaves the final survivor set in the ledger.
func (mb *masterBatch) syncWorkers(pending []int) error {
	r := mb.r
	r.SetPhase(simtime.PhaseIdle)
	notReady := func(w int) bool {
		_, err := r.RecvCrashAware(w, tagReady)
		return err != nil
	}
	for {
		mb.own.Reap(notReady, func(_ int, parts []int) { pending = append(pending, parts...) })
		alive := mb.own.Alive()
		if len(alive) == 0 {
			return fmt.Errorf("core: all workers failed; cannot recover")
		}
		if len(pending) == 0 {
			for _, w := range alive {
				r.Send(w, tagGo, goMsg{Done: true, Alive: alive}.encode())
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
			w := alive[i%len(alive)]
			extra[w] = append(extra[w], pi)
			mb.own.Give(w, pi)
		}
		pending = nil
		for _, w := range alive {
			r.Send(w, tagGo, goMsg{Extras: extra[w]}.encode())
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
	// arena holds the current batch's rendered blocks back to back, in
	// (query, hit) order; ends[i] is where block i ends in it.
	arena []byte
	ends  []int
	// The output path's other buffers, reused batch to batch: block maps
	// (query, OID) to the block index; metas and hitMetas back the metadata
	// submission, encoded before they are reused; order, segs and data are
	// the selection's write, done before the next batch.
	block    map[[2]int]int
	metas    []engine.QueryMeta
	hitMetas []engine.HitMeta
	order    []int
	segs     []mpiio.Segment
	data     []byte
}

// runWorker is the one worker body: boot from the job broadcast, acquire and
// retain this worker's virtual fragments, absorb partitions re-issued from
// crashed peers, then merge and write batch by batch. The broadcast's Serve
// flag picks between the two short drivers over those stages: a one-shot
// worker has its queries up front and searches each fragment the moment it
// is retained; a serving worker only retains, and searches everything
// resident once per stream batch.
func runWorker(r *mpi.Rank, node *vfs.Node, opts blast.Options, bank *blast.QueryBank, tuner *mpiio.Tuner) error {
	boot := engine.ReadBroadcast(r, r.Bcast(0, nil), func(data []byte) (jobMeta, []byte, error) {
		var m jobMeta
		c := engine.Decoder(data)
		err := m.code(&c).Err()
		return m, m.Queries, err
	})
	if boot.Err != nil {
		return boot.Err
	}
	meta := boot.Meta
	w := &worker{
		r: r, meta: meta, opts: opts,
		loop:    engine.NewSearchLoop(r, bank, meta.TotalLen, meta.NumSeqs),
		files:   newFileCache(r, node.Shared, meta.IOHints, tuner),
		byOID:   make(map[int]int),
		members: boot.Members,
	}
	w.collect = w.record
	onFrag, reissueDepth := w.retain, 0
	if !meta.Serve {
		w.begin(boot.Queries)
		// Re-issued partitions go through the pipeline as a static list
		// (prefetched when enabled). A serving worker reads them
		// synchronously: at a rendezvous it has no search to overlap with.
		onFrag, reissueDepth = w.retainAndSearch, meta.Prefetch
	}

	if err := w.acquire(onFrag); err != nil {
		return err
	}
	if meta.FT {
		err := w.rendezvous(func(extras []int) error {
			return w.pipeline(partSource{list: extras}, reissueDepth, onFrag)
		})
		if err != nil {
			return err
		}
	}

	w.out = mpiio.OpenOrCreate(r, node.Shared, meta.OutputPath)
	if err := w.out.SetHints(meta.IOHints); err != nil {
		return err
	}
	if meta.Serve {
		return w.serveStream()
	}
	return w.oneShot()
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

// acquire is the acquisition stage: deliver this worker's virtual fragments
// to onFrag in acquisition order — its static share read collectively, or
// the pipeline over its static share or, under dynamic assignment, over the
// master's greedy answers.
func (w *worker) acquire(onFrag func(*blast.Fragment) error) error {
	r, meta := w.r, w.meta
	mine := engine.StaticShare(len(meta.Parts), r.Size()-1, r.ID())
	if !meta.Collective {
		return w.pipeline(partSource{list: mine, greedy: meta.Dynamic}, meta.Prefetch, onFrag)
	}
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
}

// partSource yields the partitions a worker acquires, in order: a fixed list
// (its static share, or the partitions re-issued at a rendezvous), or, when
// greedy, the master's run-time answers (§5).
type partSource struct {
	list   []int
	greedy bool
	asked  int // greedy requests sent and not yet answered
}

// next returns the next partition, or -1 once the source is exhausted. A
// greedy source keeps at most depth requests outstanding beyond the answer
// it waits for: at depth 0 it asks and then waits; at depth 1 it asks again
// as soon as an answer arrives, before that partition's reads start, so the
// master round trip hides behind the search too.
func (s *partSource) next(r *mpi.Rank, depth int) (int, error) {
	if !s.greedy {
		if len(s.list) == 0 {
			return -1, nil
		}
		pi := s.list[0]
		s.list = s.list[1:]
		return pi, nil
	}
	// The request/assign rendezvous is queueing, not search: the master may
	// be busy serving other workers.
	r.SetPhase(simtime.PhaseIdle)
	if s.asked == 0 {
		r.Send(0, tagPartReq, nil)
		s.asked++
	}
	data, _, _ := r.Recv(0, tagPartAssign)
	s.asked--
	pi, err := engine.DecodeInt(data)
	if err != nil || pi < 0 {
		return -1, err
	}
	for ; s.asked < depth; s.asked++ {
		r.Send(0, tagPartReq, nil)
	}
	return pi, nil
}

// pipeline delivers the partitions src yields to onFrag in order. At depth
// 0 each is read synchronously; at depth d ≥ 1 the asynchronous reads of up
// to d upcoming partitions stay in flight while the current one is delivered
// (and, one-shot, searched), paying max(io, compute) instead of their sum.
func (w *worker) pipeline(src partSource, depth int, onFrag func(*blast.Fragment) error) error {
	r := w.r
	inflight := make([]partFetch, 0, depth+1)
	for more := true; ; {
		for more && len(inflight) <= depth {
			pi, err := src.next(r, depth)
			if err != nil {
				return err
			}
			if more = pi >= 0; more {
				r.SetPhase(simtime.PhaseInput)
				pf, err := w.fetchPart(pi, depth > 0)
				if err != nil {
					return err
				}
				inflight = append(inflight, pf)
			}
		}
		if len(inflight) == 0 {
			return nil
		}
		r.SetPhase(simtime.PhaseInput)
		frag, err := inflight[0].finish()
		if err != nil {
			return err
		}
		inflight = append(inflight[:0], inflight[1:]...)
		if err := onFrag(frag); err != nil {
			return err
		}
	}
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
		var msg goMsg
		c := engine.Decoder(data)
		if err := msg.code(&c).Err(); err != nil {
			return err
		}
		if err := onExtras(msg.Extras); err != nil {
			return err
		}
		if msg.Done {
			w.members = engine.TreeMembers(msg.Alive)
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
// result-caching block rendering (§3.2) — aside into the worker's arena,
// then charged on the token block by block in (query, hit) order —,
// metadata submission (flat or tree), and the selection-ordered collective
// write (§3.3). Shared verbatim by the one-shot run and the serving loop.
func (w *worker) outputBatch(q0, q1 int) error {
	r, meta, outFile := w.r, w.meta, w.out
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
	// Result caching (§3.2): render every candidate block into memory and
	// submit metadata only. A worker with no block to render does not park.
	w.arena, w.ends = w.arena[:0], w.ends[:0]
	nHits := 0
	for q := q0; q < q1; q++ {
		nHits += len(w.hits[q])
	}
	if nHits > 0 {
		r.Aside(func() { w.renderBlocks(q0, q1) })
	}
	if w.block == nil {
		w.block = make(map[[2]int]int, nHits)
	}
	clear(w.block)
	w.metas, w.hitMetas = w.metas[:0], slices.Grow(w.hitMetas[:0], nHits)
	size := 0 // about the submission's encoded length
	start, b := 0, 0
	for q := q0; q < q1; q++ {
		from := len(w.hitMetas)
		for _, hit := range w.hits[q] {
			end := w.ends[b]
			r.FormatCost(int64(end - start))
			w.block[[2]int{q, hit.OID}] = b
			w.hitMetas = append(w.hitMetas, engine.MetaFromResult(r.ID(), hit, int64(end-start)))
			size += len(hit.ID) + len(hit.Defline) + 40
			start = end
			b++
		}
		w.metas = append(w.metas, engine.QueryMeta{QueryIndex: q, Work: w.work[q], Hits: w.hitMetas[from:len(w.hitMetas):len(w.hitMetas)]})
		size += 64
	}
	bm := batchMetas{FirstQuery: q0, PerQuery: w.metas}
	c := engine.Encoder(size)
	submission := bm.code(&c).Bytes()
	r.Metrics().Counter("engine.blocks_rendered", r.ID()).Add(int64(len(w.ends)))
	var sel selection
	if meta.Tree {
		// Hierarchical merge: fold this worker's metadata into the
		// k-ary reduction (pre-merging the group's bundles locally)
		// and take the layout from the down-tree broadcast.
		var combErr error
		if _, _, err := r.TreeReduce(0, meta.TreeFanout, w.members, submission, treeCombiner(r, maxTargets, &combErr)); err != nil {
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
		r.Send(0, tagResults, submission)

		// Selection: assemble the chosen blocks in offset order and
		// write.
		data, _, _ := r.Recv(0, tagSelect)
		c := engine.Decoder(data)
		if err := sel.code(&c).Err(); err != nil {
			return err
		}
	}
	w.order = w.order[:0]
	for i := range sel.OIDs {
		w.order = append(w.order, i)
	}
	slices.SortFunc(w.order, func(a, b int) int { return cmp.Compare(sel.Offsets[a], sel.Offsets[b]) })
	var total int64
	for _, n := range sel.Lengths {
		total += n
	}
	w.segs, w.data = w.segs[:0], slices.Grow(w.data[:0], int(total))
	for _, i := range w.order {
		key := [2]int{sel.Queries[i], sel.OIDs[i]}
		b, ok := w.block[key]
		if !ok {
			r.Metrics().Counter("engine.cache_misses", r.ID()).Inc()
			return fmt.Errorf("core: master selected unknown hit q=%d OID=%d", key[0], key[1])
		}
		r.Metrics().Counter("engine.cache_hits", r.ID()).Inc()
		start := 0
		if b > 0 {
			start = w.ends[b-1]
		}
		block := w.arena[start:w.ends[b]]
		if int64(len(block)) != sel.Lengths[i] {
			return fmt.Errorf("core: block size mismatch for q=%d OID=%d: %d vs %d",
				key[0], key[1], len(block), sel.Lengths[i])
		}
		w.segs = append(w.segs, mpiio.Segment{Offset: sel.Offsets[i], Length: sel.Lengths[i]})
		w.data = append(w.data, block...)
		r.MemCopy(int64(len(block)))
	}
	r.Metrics().Counter("engine.blocks_dropped", r.ID()).Add(int64(len(w.ends) - len(w.order)))
	if err := outFile.SetView(mpiio.View{Segments: w.segs}); err != nil {
		return err
	}
	if meta.Independent {
		if err := outFile.WriteIndependent(w.data); err != nil {
			return err
		}
		r.Barrier()
		return nil
	}
	return outFile.WriteCollective(w.data)
}

// renderBlocks is outputBatch's render phase, run aside: it appends every
// candidate block of queries[q0:q1] to the arena in (query, hit) order and
// records where each ends. It touches no clock and no world state, only the
// worker's own hits, subjects and arena and the job's read-only queries.
func (w *worker) renderBlocks(q0, q1 int) {
	for q := q0; q < q1; q++ {
		for _, hit := range w.hits[q] {
			subj := w.pool.Subjects[w.byOID[hit.OID]].Residues
			w.arena = blast.AppendHit(w.arena, w.opts.OutFormat, w.queries[q], subj, hit, w.opts.Matrix)
			w.ends = append(w.ends, len(w.arena))
		}
	}
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

// partFetch is one partition's reads, four per extent (header-offset array,
// sequence-offset array, header range, sequence range): their data when read
// synchronously, or the reads still in flight.
type partFetch struct {
	part  []wireExtent
	data  [][]byte
	async []*mpiio.AsyncRead
}

// fetchPart issues partition pi's reads from the global shared files —
// contiguous independent reads, no staging copy. A synchronous read charges
// the worker's clock now; an asynchronous one is booked from the current
// virtual time and charged when finish waits for it.
func (w *worker) fetchPart(pi int, async bool) (partFetch, error) {
	part := w.meta.Parts[pi]
	pf := partFetch{part: part, data: make([][]byte, 0, 4*len(part))}
	if async {
		pf.async = make([]*mpiio.AsyncRead, 0, 4*len(part))
	}
	for _, e := range part {
		idx, err := w.files.file(formatdb.IndexPath(e.VolBase))
		if err != nil {
			return pf, err
		}
		hdr, err := w.files.file(formatdb.HeaderPath(e.VolBase))
		if err != nil {
			return pf, err
		}
		seqs, err := w.files.file(formatdb.SeqPath(e.VolBase))
		if err != nil {
			return pf, err
		}
		arr := 8 * int64(e.To-e.From+1)
		for _, rd := range [...]struct {
			f      *mpiio.File
			off, n int64
		}{{idx, e.HdrArrayPos, arr}, {idx, e.SeqArrayPos, arr}, {hdr, e.HdrOff, e.HdrLen}, {seqs, e.SeqOff, e.SeqLen}} {
			if async {
				pf.async = append(pf.async, rd.f.StartReadAt(rd.off, rd.n))
			} else {
				pf.data = append(pf.data, rd.f.ReadAt(rd.off, rd.n))
			}
		}
	}
	return pf, nil
}

// finish waits out the reads still in flight and decodes the fragment.
func (pf *partFetch) finish() (*blast.Fragment, error) {
	for _, rd := range pf.async {
		pf.data = append(pf.data, rd.Wait())
	}
	n := 0
	for _, e := range pf.part {
		n += e.To - e.From
	}
	frag := &blast.Fragment{Subjects: make([]blast.Subject, 0, n)}
	for i, e := range pf.part {
		d := pf.data[4*i:]
		if err := decodeExtent(frag, e, d[0], d[1], d[2], d[3]); err != nil {
			return nil, err
		}
	}
	return frag, nil
}

// decodeExtent decodes one extent from its four reads and appends its
// subjects to frag.
func decodeExtent(frag *blast.Fragment, e wireExtent, hdrArr, seqArr, hdr, seqs []byte) error {
	recs, err := formatdb.DecodeWithOffsets(e.OIDFrom, formatdb.DecodeOffsets(hdrArr), formatdb.DecodeOffsets(seqArr), hdr, seqs)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		frag.Subjects = append(frag.Subjects, blast.Subject{
			OID: rec.OID, ID: rec.ID, Defline: rec.Defline, Residues: rec.Residues,
		})
	}
	return nil
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
// fetchPart reads.
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
			err := decodeExtent(frags[x.part], x.e, idxAt(idxBuf, 2*i), idxAt(idxBuf, 2*i+1), hdrAt(hdrBuf, i), seqAt(seqBuf, i))
			if err != nil {
				return nil, err
			}
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
