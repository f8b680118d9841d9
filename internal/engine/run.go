package engine

import (
	"fmt"

	"parblast/internal/blast"
	"parblast/internal/mpi"
	"parblast/internal/seq"
	"parblast/internal/simtime"
	"parblast/internal/stats"
	"parblast/internal/vfs"
)

// The stages both parallel engines run the same way: validating and
// launching a run, the worker's (fragment, query) search loop, the master's
// latency settlement and output-phase receive, and the rank lists the merge
// trees are built over. Each exists once, here, so a change to any of them
// is one edit and the two engines — and their one-shot and serving modes —
// cannot drift apart.

// Boot is the engine-independent part of a validated run plan.
type Boot struct {
	// FT enables the failure-recovery protocol: set when the MPI config
	// schedules faults (an engine may also force it on).
	FT bool
	// Fanout is the reduction-tree fan-out for the hierarchical merge.
	Fanout int
}

// PlanRun validates what every run needs regardless of engine — a usable
// job, a master plus at least one worker, a storage view per rank, a fault
// schedule that spares the master, a tree fan-out that can form a tree — and
// fills the default (fan-out 0 = mpi.DefaultTreeFanout). pkg prefixes the
// errors with the calling engine.
func PlanRun(pkg string, nodes []*vfs.Node, nprocs int, cfg mpi.Config, job *Job, treeMerge bool, mergeFanout int) (Boot, error) {
	if err := job.Validate(); err != nil {
		return Boot{}, err
	}
	if nprocs < 2 {
		return Boot{}, fmt.Errorf("%s: need ≥2 ranks (1 master + workers), got %d", pkg, nprocs)
	}
	if len(nodes) < nprocs {
		return Boot{}, fmt.Errorf("%s: %d nodes for %d ranks", pkg, len(nodes), nprocs)
	}
	// Failure recovery only covers workers: the master holds the merged
	// results, the output layout, and the failure detector itself.
	for _, f := range cfg.Faults {
		if f.Rank == 0 && f.Kind == mpi.FaultCrash {
			return Boot{}, fmt.Errorf("%s: cannot inject a crash into rank 0 (the master)", pkg)
		}
	}
	if mergeFanout < 0 {
		return Boot{}, fmt.Errorf("%s: negative merge fan-out %d", pkg, mergeFanout)
	}
	b := Boot{FT: len(cfg.Faults) > 0, Fanout: mergeFanout}
	if b.Fanout == 0 {
		b.Fanout = mpi.DefaultTreeFanout
	}
	if treeMerge && b.Fanout < 2 {
		return Boot{}, fmt.Errorf("%s: merge fan-out %d < 2", pkg, mergeFanout)
	}
	return b, nil
}

// Execute runs body on nprocs ranks and summarizes the run: wall and phase
// maxima, output size, traffic totals, and I/O fault statistics. qlat is
// the per-query latency sink the master goroutine appends to (SettleQuery);
// it is read only after mpi.RunConfig returns — the run's WaitGroup is the
// barrier.
func Execute(nodes []*vfs.Node, nprocs int, cfg mpi.Config, outputPath string, qlat *[]float64, body func(*mpi.Rank) error) (RunResult, error) {
	if cfg.Comm == nil {
		cfg.Comm = mpi.NewCommStats(nprocs)
	}
	// The world's clocks start at zero, so the storage it queues on must too.
	eachFS(nodes, (*vfs.FS).BeginRun)
	clocks, err := mpi.RunConfig(nprocs, cfg, body)
	if err != nil {
		return RunResult{}, err
	}
	var outBytes int64
	if f, err := nodes[0].Shared.Open(outputPath); err == nil {
		outBytes = f.Size()
	}
	res := Summarize(clocks, outBytes)
	res.QueryLatencies = *qlat
	res.CommBytes, res.ShuffleBytes, res.CollectiveBytes, res.CommMessages = cfg.Comm.Totals()
	res.AddIOFaults(nodes)
	return res, nil
}

// SettleQuery records that the next query's results are globally merged and
// laid out (or on disk): its end-to-end latency, measured on the master's
// clock from since — the job-metadata broadcast for a one-shot run, the
// batch's open-loop ARRIVAL for a served one — is appended to qlat and
// booked into the latency distribution.
func SettleQuery(r *mpi.Rank, since float64, qlat *[]float64) {
	lat := r.Clock().Now() - since
	*qlat = append(*qlat, lat)
	RecordQueryLatency(r.Metrics(), r.ID(), lat)
}

// RecvOutputPhase is the master's receive from one worker once the output
// phase has begun. Recovery only covers the search phase — what the dead
// worker cached is gone and the output is already partly laid out — so
// under fault tolerance a crash here surfaces as a clean error wrapping
// mpi.ErrRankFailed instead of a deadlock.
func RecvOutputPhase(r *mpi.Rank, pkg string, w, tag int, ft bool) ([]byte, error) {
	if !ft {
		data, _, _ := r.Recv(w, tag)
		return data, nil
	}
	data, err := r.RecvCrashAware(w, tag)
	if err != nil {
		return nil, fmt.Errorf("%s: worker %d crashed during the output phase; recovery only covers the search phase: %w", pkg, w, err)
	}
	return data, nil
}

// WorkerRanks lists the worker ranks 1..workers — everyone alive, before
// any failure detection has run.
func WorkerRanks(workers int) []int {
	all := make([]int, 0, workers)
	for w := 1; w <= workers; w++ {
		all = append(all, w)
	}
	return all
}

// TreeMembers is the reduction-tree membership: the master plus every live
// worker — all live ranks, which is what the flat collectives the tree ones
// become under a fault schedule synchronize over.
func TreeMembers(alive []int) []int {
	members := make([]int, 0, len(alive)+1)
	members = append(members, 0)
	return append(members, alive...)
}

// Broadcast is a job or batch broadcast as its receivers read it: the sender's
// metadata, the query set it carried (nil when it carried none) and the
// fault-free tree membership, every rank. It is the same on every receiver,
// so the host decodes it once per broadcast (mpi.Once) and the receivers
// share it read-only: a worker told of a new survivor set replaces its
// membership, it never edits this one.
type Broadcast[M any] struct {
	Meta    M
	Queries []*seq.Sequence
	Members []int
	Err     error
}

// ReadBroadcast decodes data, the payload of the Bcast r just left; split
// yields the metadata and the packed query set inside it.
func ReadBroadcast[M any](r *mpi.Rank, data []byte, split func([]byte) (M, []byte, error)) *Broadcast[M] {
	workers := r.Size() - 1
	return mpi.Once(r, "engine.bcast_decode", func() *Broadcast[M] {
		b := &Broadcast[M]{Members: TreeMembers(WorkerRanks(workers))}
		var packed []byte
		if b.Meta, packed, b.Err = split(data); b.Err == nil && len(packed) > 0 {
			var wq WireQueries
			if wq, b.Err = DecodeWireQueries(packed); b.Err == nil {
				b.Queries = wq.Unpack()
			}
		}
		return b
	})
}

// SearchLoop is a worker's search stage: the kernel, the job's shared query
// bank — which also lends the scratch context each Search runs in — and the
// database-global statistics every rank must agree on for E-values to be
// comparable across fragments.
type SearchLoop struct {
	r          *mpi.Rank
	bank       *blast.QueryBank
	dbResidues int64
	dbSeqs     int
	// queries is the current query set; spaces[i] is queries[i]'s search
	// space, which depends on the query and the database but not on the
	// fragment, so Begin computes it once.
	queries []*seq.Sequence
	spaces  []stats.SearchSpace
	// The search in flight: kernel, bound once, fills results (and err, after
	// the queries before it) for frag while the rank is aside.
	kernel  func()
	frag    *blast.Fragment
	results []*blast.QueryResult
	err     error
}

// NewSearchLoop builds the search stage of one worker rank over the job's
// query bank, which every rank of the run shares host-side.
func NewSearchLoop(r *mpi.Rank, bank *blast.QueryBank, dbResidues int64, dbSeqs int) *SearchLoop {
	l := &SearchLoop{r: r, bank: bank, dbResidues: dbResidues, dbSeqs: dbSeqs}
	l.kernel = l.searchAll
	return l
}

// MaxTargets is the per-query cap of the global selection rule.
func (l *SearchLoop) MaxTargets() int { return l.bank.Searcher().Options().MaxTargetSeqs }

// Begin installs the query set the following Search calls run: the job's
// queries for a one-shot worker, the next batch's for a serving one.
func (l *SearchLoop) Begin(queries []*seq.Sequence) {
	l.queries = queries
	l.spaces = l.spaces[:0]
	for _, q := range queries {
		l.spaces = append(l.spaces, SearchSpaceFor(l.bank.Searcher(), q.Len(), l.dbResidues, l.dbSeqs))
	}
}

// Search runs every query against one fragment in two phases. The kernel
// phase runs aside (mpi.Rank.Aside), off the scheduler token and beside
// every other rank's: in a scratch context borrowed from the job's bank, load
// each query's index from the bank and search, then hand the context back
// unloaded. The charge phase runs on the token, in query order: charge the
// kernel's work units to the rank's clock, book the work counters, and hand
// the result to emit. A kernel error stops the search; the queries before it
// are still charged. Only the host shares the index and the scratch. The
// result's work still includes the build, so the modelled rank is charged
// for indexing the query at every (fragment, query) step, as a real worker
// would be. Both engines' one-shot and serving workers search through this
// loop, which is what keeps their per-(query, fragment) work counters — and
// so the report footers — identical. Pass emit as a func value built once
// per worker: the loop itself allocates nothing per (fragment, query).
func (l *SearchLoop) Search(frag *blast.Fragment, emit func(qi int, res *blast.QueryResult)) error {
	r := l.r
	r.SetPhase(simtime.PhaseSearch)
	l.frag = frag
	r.Aside(l.kernel)
	for qi, res := range l.results {
		r.Compute(res.Work.Units())
		RecordWork(r.Metrics(), r.ID(), res.Work)
		emit(qi, res)
	}
	return l.err
}

// searchAll is Search's kernel phase. It touches no clock and no world state,
// only the bank, the borrowed context and the loop's own fields.
func (l *SearchLoop) searchAll() {
	l.results, l.err = l.results[:0], nil
	ctx := l.bank.Lend()
	defer l.bank.TakeBack(ctx)
	for qi := range l.queries {
		res, err := l.searchOne(ctx, qi)
		if err != nil {
			l.err = err
			return
		}
		l.results = append(l.results, res)
	}
}

// searchOne searches query qi against the fragment in flight.
func (l *SearchLoop) searchOne(ctx *blast.Context, qi int) (*blast.QueryResult, error) {
	q := l.queries[qi]
	p, err := l.bank.Get(q)
	if err != nil {
		return nil, err
	}
	if err := ctx.UsePrepared(q, p); err != nil {
		return nil, err
	}
	return ctx.SearchFragment(l.frag, l.spaces[qi])
}
