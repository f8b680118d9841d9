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
// schedule that spares the master, a tree fan-out only with a tree merge and
// one that can form a tree, and, for a serving run (non-nil stream), the
// stream — and fills the default (fan-out 0 = mpi.DefaultTreeFanout). pkg
// prefixes the errors with the calling engine.
func PlanRun(pkg string, nodes []*vfs.Node, nprocs int, cfg mpi.Config, job *Job, treeMerge bool, mergeFanout int, stream *Stream) (Boot, error) {
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
		if f.Rank == 0 {
			return Boot{}, fmt.Errorf("%s: cannot inject a crash into rank 0 (the master)", pkg)
		}
	}
	if mergeFanout < 0 {
		return Boot{}, fmt.Errorf("%s: negative merge fan-out %d", pkg, mergeFanout)
	}
	if mergeFanout != 0 && !treeMerge {
		return Boot{}, fmt.Errorf("%s: MergeFanout %d is the tree merge's fan-out: it needs TreeMerge", pkg, mergeFanout)
	}
	b := Boot{FT: len(cfg.Faults) > 0, Fanout: mergeFanout}
	if b.Fanout == 0 {
		b.Fanout = mpi.DefaultTreeFanout
	}
	if treeMerge && b.Fanout < 2 {
		return Boot{}, fmt.Errorf("%s: merge fan-out %d < 2", pkg, mergeFanout)
	}
	if stream != nil {
		return b, stream.Validate(pkg, len(job.Queries))
	}
	return b, nil
}

// PartCount is both engines' natural-partition rule: the job's Fragments,
// or 0 meaning one part per worker of nprocs ranks.
func PartCount(fragments, nprocs int) int {
	if fragments == 0 {
		return nprocs - 1
	}
	return fragments
}

// Launch is the one rank lifecycle of both engines, one-shot and serving:
// build the job's query bank and the master's per-query latency sink, charge
// every rank the set-up cost, run body, close with a barrier, and summarize
// the run — wall and phase maxima, output size, traffic totals, I/O fault
// statistics — and the bank's index sharing. body is the rank's engine
// stages: the master appends to qlat (SettleQuery), which is read only after
// mpi.RunConfig returns — the run's WaitGroup is the barrier. A rank whose
// body fails skips the closing barrier.
func Launch(nodes []*vfs.Node, nprocs int, cfg mpi.Config, job *Job, body func(r *mpi.Rank, bank *blast.QueryBank, qlat *[]float64) error) (RunResult, error) {
	bank, err := blast.NewQueryBank(job.Options)
	if err != nil {
		return RunResult{}, err
	}
	qlat := make([]float64, 0, len(job.Queries))
	// The world's clocks start at zero, so the storage it queues on must too.
	eachFS(nodes, (*vfs.FS).BeginRun)
	clocks, sent, err := mpi.RunConfig(nprocs, cfg, func(r *mpi.Rank) error {
		r.SetPhase(simtime.PhaseOther)
		r.Advance(r.Cost().SetupCost)
		if err := body(r, bank, &qlat); err != nil {
			return err
		}
		r.SetPhase(simtime.PhaseOther)
		r.Barrier()
		return nil
	})
	RecordIndexSharing(cfg.Metrics, bank.Stats())
	if err != nil {
		return RunResult{}, err
	}
	var outBytes int64
	if f, err := nodes[0].Shared.Open(job.OutputPath); err == nil {
		outBytes = f.Size()
	}
	res := Summarize(clocks, outBytes)
	res.QueryLatencies = qlat
	sum := mpi.TotalTraffic(sent)
	res.CommBytes, res.ShuffleBytes, res.CollectiveBytes, res.CommMessages = sum.Protocol, sum.Shuffle, sum.Collective, sum.Messages
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
// worker cached is gone and the output is already partly laid out — so a
// crash here surfaces as a clean error wrapping mpi.ErrRankFailed instead of
// a deadlock. Where no fault is scheduled it is a blocking receive.
func RecvOutputPhase(r *mpi.Rank, pkg string, w, tag int) ([]byte, error) {
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

// StaticShare is the static assignment rule of both engines: of parts
// partitions (or fragments), worker w of workers owns every part p with
// p mod workers = w-1, in increasing order.
func StaticShare(parts, workers, w int) []int {
	var share []int
	for p := w - 1; p < parts; p += workers {
		share = append(share, p)
	}
	return share
}

// Ledger is both masters' record of who owns which part: the live workers in
// rank order and every part each was given, in order. A crashed worker loses
// every part it was given, so Reap hands them all back; only re-acquiring
// them differs: mpiBLAST re-copies fragments, pioBLAST re-reads offsets.
type Ledger struct {
	alive []int
	parts [][]int
}

// NewLedger starts a ledger with workers 1..workers alive, owning nothing.
func NewLedger(workers int) *Ledger {
	return &Ledger{alive: WorkerRanks(workers), parts: make([][]int, workers+1)}
}

// Alive lists the live workers in rank order, until the next Reap.
func (l *Ledger) Alive() []int { return l.alive }

// Give adds parts to what worker w owns, keeping (not copying) the first
// slice it is given.
func (l *Ledger) Give(w int, parts ...int) {
	if l.parts[w] == nil {
		l.parts[w] = parts
		return
	}
	l.parts[w] = append(l.parts[w], parts...)
}

// Reap asks dead about every live worker in rank order, drops each it names,
// and hands lost that worker's parts in the order it was given them.
func (l *Ledger) Reap(dead func(w int) bool, lost func(w int, parts []int)) {
	live := l.alive[:0]
	for _, w := range l.alive {
		if !dead(w) {
			live = append(live, w)
			continue
		}
		parts := l.parts[w]
		l.parts[w] = nil
		lost(w, parts)
	}
	l.alive = live
}

// Broadcast is a job or batch broadcast as its receivers read it: the sender's
// metadata and the query set it carried (nil when it carried none). It is the
// same on every receiver, so the host decodes it once per broadcast
// (mpi.Once) and the receivers share it read-only.
type Broadcast[M any] struct {
	Meta    M
	Queries []*seq.Sequence
	Err     error
}

// ReadBroadcast decodes data, the payload of the Bcast r just left; split
// yields the metadata and the packed query set inside it.
func ReadBroadcast[M any](r *mpi.Rank, data []byte, split func([]byte) (M, []byte, error)) *Broadcast[M] {
	return mpi.Once(r, "engine.bcast_decode", func() *Broadcast[M] {
		b := &Broadcast[M]{}
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

// SearchLoop is a worker's search stage: the job's shared query bank — which
// is also the kernel executor each Search runs on — and the database-global
// statistics every rank must agree on for E-values to be comparable across
// fragments.
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
	// The search in flight: kernel, bound once, fills results (or err) for
	// frag while the rank is aside.
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
// every other rank's: the job's bank finds the query set's batch index and
// scans each subject once for every query, in the bank's kernel slots. The
// charge phase runs on the
// token, in query order: charge the kernel's work units to the rank's clock,
// book the work counters, and hand the result to emit. A kernel error stops
// the search before anything is charged. Only the host shares the index, the
// scan and the scratch. Each result's work still includes its query's build
// and its own scan, so the modelled rank is charged for indexing and scanning
// at every (fragment, query) step, as a real worker would be. Both engines'
// one-shot and serving workers search through this loop, which is what keeps
// their per-(query, fragment) work counters — and so the report footers —
// identical. Pass emit as a func value built once per worker: the loop itself
// allocates nothing per (fragment, query).
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
// only the bank and the loop's own fields.
func (l *SearchLoop) searchAll() {
	l.results, l.err = l.bank.Search(l.results[:0], l.queries, l.frag, l.spaces)
}
