// Package mpiblast implements the baseline parallel BLAST the paper starts
// from (mpiBLAST 1.2.1's architecture):
//
//   - the database is PRE-PARTITIONED into physical fragment files
//     (mpiformatdb); the fragments live on the shared file system;
//   - a master greedily assigns unsearched fragments to idle workers;
//   - each worker COPIES its fragment's files to node-local storage (or to
//     shared scratch space when the platform exposes no local disks, as on
//     the paper's Altix) before searching;
//   - result merging is serialized through the master: workers submit
//     local result alignments, the master sorts them and then FETCHES the
//     alignment data of every selected hit from its owning worker with one
//     request/reply round trip per hit, formats everything itself, and
//     writes the single output file alone.
//
// Every one of those design points is a cost the pioBLAST engine
// (internal/core) removes; this package exists so each figure can compare
// the two.
package mpiblast

import (
	"fmt"

	"parblast/internal/blast"
	"parblast/internal/engine"
	"parblast/internal/formatdb"
	"parblast/internal/mpi"
	"parblast/internal/mpiio"
	"parblast/internal/seq"
	"parblast/internal/simtime"
	"parblast/internal/vfs"
)

// Message tags (all below the mpiio-reserved space).
const (
	tagWorkReq = 1
	tagAssign  = 2
	tagResults = 3
	tagFetch   = 4
	tagHitData = 5
	tagRelease = 6
)

// jobMeta is the broadcast that seeds every worker. It carries what a worker
// reads and nothing else; what only the master needs stays in masterPlan.
type jobMeta struct {
	Queries   []byte // engine.EncodeWireQueries payload
	NumSeqs   int
	TotalLen  int64
	FragBases []string
	// Tree selects the hierarchical tree merge; TreeFanout is the k-ary
	// reduction fan-out.
	Tree       bool
	TreeFanout int
	// Serve marks a streaming run: Queries is empty, and each batch's
	// queries arrive in a per-batch broadcast instead (engine.ServeStream).
	Serve bool
}

func (m *jobMeta) code(c *engine.Codec) *engine.Codec {
	c.Blob(&m.Queries)
	c.Int(&m.NumSeqs)
	c.Int64(&m.TotalLen)
	for i := range engine.Len(c, &m.FragBases) {
		c.String(&m.FragBases[i])
	}
	c.Bool(&m.Tree)
	c.Int(&m.TreeFanout)
	c.Bool(&m.Serve)
	return c
}

func (m *jobMeta) encode() []byte { return m.code(new(engine.Codec)).Bytes() }

type fetchKey struct {
	Query int
	OID   int
}

// resultsMsg is one worker's per-(query, fragment) result submission. As in
// mpiBLAST, it carries the LOCAL RESULT ALIGNMENTS themselves (coordinates,
// scores, traces — everything except the subject residues the output
// formatter needs, which the master fetches later per selected hit).
// pioBLAST's equivalent message carries only flat metadata; this asymmetry
// is the §3.2 message-volume reduction.
type resultsMsg struct {
	Query    int
	Fragment int
	Worker   int
	Work     blast.WorkCounters
	Hits     []engine.WireHit // residues stripped
}

func (m *resultsMsg) code(c *engine.Codec) *engine.Codec {
	c.Int(&m.Query)
	c.Int(&m.Fragment)
	c.Int(&m.Worker)
	engine.CodeWork(c, &m.Work)
	for i := range engine.Len(c, &m.Hits) {
		m.Hits[i].Code(c)
	}
	return c
}

func (m *resultsMsg) encode() []byte { return m.code(new(engine.Codec)).Bytes() }

func (k *fetchKey) code(c *engine.Codec) *engine.Codec {
	c.Int(&k.Query)
	c.Int(&k.OID)
	return c
}

func (k fetchKey) encode() []byte { return k.code(new(engine.Codec)).Bytes() }

// PrepareFragments runs the mpiformatdb step: it physically fragments the
// formatted database into n standalone fragment databases on the shared
// file system and returns their base names. The paper counts this as
// operational overhead OUTSIDE the timed run (it must be redone whenever
// the worker count outgrows the fragment count).
func PrepareFragments(fs *vfs.FS, dbBase string, n int) ([]string, error) {
	db, err := formatdb.Open(fs, dbBase)
	if err != nil {
		return nil, err
	}
	frags, err := db.PhysicalFragment(fs, n)
	if err != nil {
		return nil, err
	}
	bases := make([]string, len(frags))
	for i, f := range frags {
		bases[i] = f.Base
	}
	return bases, nil
}

// Options selects baseline variants.
type Options struct {
	// FetchWindow pipelines the master's per-hit fetch phase: up to this
	// many requests are kept in flight instead of strictly one
	// request/reply at a time (the 1.2.1 behaviour the paper measured).
	// 0 or 1 keeps the faithful serial fetch. This is an ablation: it
	// quantifies how much of the baseline's output time is pure round-trip
	// serialization versus master-side processing.
	FetchWindow int
	// TreeMerge replaces the per-(query, fragment) result streams through
	// the master with the hierarchical tree merge: workers hold results
	// locally, pre-merge to the per-query top-k, and fold one bundle per
	// member up a k-ary reduction tree. The serial per-hit fetch stays —
	// this fixes the merge serialization, not the fetch round trips.
	TreeMerge bool
	// MergeFanout is the reduction-tree fan-out for TreeMerge
	// (0 = mpi.DefaultTreeFanout).
	MergeFanout int
}

// Run executes the baseline engine on nprocs ranks (rank 0 is the master;
// workers are 1..nprocs-1) under the MPI configuration cfg (cost model,
// heterogeneity, faults, tracing). nodes[i] is rank i's storage view. The
// physical fragments must already exist (PrepareFragments). Rank 0 boots the
// master — the job broadcast — and runs its driver; every other rank runs
// the worker, which takes its protocol from the broadcast.
//
// A nil stream is a one-shot run. Otherwise the cluster serves the stream:
// it boots once — every worker COPIES its fragments to local staging and
// loads them exactly once — and then drains the stream with the same stream
// semantics as core.Run (admission queue, drop-newest shedding,
// arrival-anchored latencies). Because each batch runs the one-shot merge
// and output stages at a running offset, the streamed output file is
// byte-identical to a one-shot run over the admitted queries. A serving run
// rejects fault schedules up front: the baseline's recovery story is
// re-copying whole physical fragments, which interacts with a persistent
// stream in ways mpiBLAST 1.2.1 never defined. The pio engine is the one
// that demonstrates mid-stream recovery.
func Run(nodes []*vfs.Node, nprocs int, cfg mpi.Config, job *engine.Job, opts Options, stream *engine.Stream) (engine.RunResult, engine.ServeStats, error) {
	var stats engine.ServeStats
	mp, err := plan(nodes, nprocs, cfg, job, opts, stream)
	if err != nil {
		return engine.RunResult{}, stats, err
	}
	res, err := engine.Launch(nodes, nprocs, cfg, job, func(r *mpi.Rank, bank *blast.QueryBank, qlat *[]float64) error {
		if r.ID() != 0 {
			return runWorker(r, nodes[r.ID()], bank)
		}
		r.Bcast(0, mp.meta.encode())
		m := &master{
			r: r, node: nodes[0], job: job, masterPlan: mp,
			searcher: bank.Searcher(), maxTargets: bank.Searcher().Options().MaxTargetSeqs,
			window: max(opts.FetchWindow, 1),
			// Admission: every query of a one-shot run is "in the system"
			// once the job metadata broadcast completes.
			admit: r.Clock().Now(),
		}
		switch {
		case stream != nil:
			return m.serveStream(stream, bank, &stats, qlat)
		case mp.meta.Tree:
			return m.oneShotTree(qlat)
		default:
			return m.oneShotFlat(qlat)
		}
	})
	return res, stats, err
}

// masterPlan is a validated run as the master holds it: the broadcast that
// seeds every worker, plus what only the master reads and so never travels.
type masterPlan struct {
	meta   jobMeta
	kind   seq.Kind
	dbInfo blast.DBInfo
	// ft parks a requester the empty queue cannot serve while results are
	// outstanding, so a crashed peer's fragment can still find it: set when
	// the MPI config schedules faults.
	ft bool
}

// plan validates the run and builds the master's plan, for one-shot and
// serving (non-nil stream) runs alike.
func plan(nodes []*vfs.Node, nprocs int, cfg mpi.Config, job *engine.Job, opts Options, stream *engine.Stream) (masterPlan, error) {
	boot, err := engine.PlanRun("mpiblast", nodes, nprocs, cfg, job, opts.TreeMerge, opts.MergeFanout, stream)
	if err != nil {
		return masterPlan{}, err
	}
	if opts.FetchWindow < 0 {
		return masterPlan{}, fmt.Errorf("mpiblast: negative fetch window %d", opts.FetchWindow)
	}
	serve := stream != nil
	if serve && boot.FT {
		return masterPlan{}, fmt.Errorf("mpiblast: serve mode does not support fault injection (fragment re-copy recovery is one-shot only)")
	}
	shared := nodes[0].Shared
	db, err := formatdb.Open(shared, job.DBBase)
	if err != nil {
		return masterPlan{}, err
	}
	// PhysicalFragment never cuts more fragments than there are sequences.
	nFrags := min(engine.PartCount(job.Fragments, nprocs), db.NumSeqs)
	fragBases := make([]string, nFrags)
	for i := range fragBases {
		fragBases[i] = formatdb.FragmentBase(job.DBBase, i)
		if _, err := shared.Open(formatdb.IndexPath(fragBases[i])); err != nil {
			return masterPlan{}, fmt.Errorf("mpiblast: fragment %d missing (run PrepareFragments): %w", i, err)
		}
	}
	meta := jobMeta{
		NumSeqs:    db.NumSeqs,
		TotalLen:   db.TotalResidues,
		FragBases:  fragBases,
		Tree:       opts.TreeMerge,
		TreeFanout: boot.Fanout,
		Serve:      serve,
	}
	if !serve {
		// A streaming run's queries arrive per batch instead.
		meta.Queries = engine.EncodeWireQueries(engine.PackQueries(job.Queries))
	}
	return masterPlan{
		meta:   meta,
		kind:   db.Kind,
		dbInfo: blast.DBInfo{Title: db.Title, NumSeqs: db.NumSeqs, TotalLen: db.TotalResidues},
		ft:     boot.FT,
	}, nil
}

// worker is the baseline worker's state: where fragments are staged, and
// what the current query set's searches have produced for the master.
type worker struct {
	r       *mpi.Rank
	node    *vfs.Node
	meta    jobMeta
	loop    *engine.SearchLoop
	staging *vfs.FS // node-local disk, or shared scratch (under prefix)
	prefix  string
	// residues maps (query, OID) to the subject residues the master may
	// fetch; bundle accumulates the tree protocol's per-query hit lists.
	residues map[fetchKey][]byte
	bundle   treeResults
	// fragID and frag are the fragment being searched, read by emit.
	fragID int
	frag   *blast.Fragment
	submit func(qi int, res *blast.QueryResult) // emit, bound once
}

// runWorker is the one worker body. The broadcast says how fragments are
// obtained (Serve: a static share copied and loaded once, then searched per
// stream batch; otherwise greedily assigned, copied, loaded, and searched
// one at a time) and how results reach the master (Tree: held locally and
// folded up the reduction tree; otherwise streamed per (query, fragment)
// during the search). Either way the worker then serves the master's
// per-hit residue fetches until released.
func runWorker(r *mpi.Rank, node *vfs.Node, bank *blast.QueryBank) error {
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
	// Local staging target: node-local disk, or shared scratch when the
	// platform has none (the paper's Altix configuration).
	w := &worker{
		r: r, node: node, meta: meta, staging: node.Local,
		loop: engine.NewSearchLoop(r, bank, meta.TotalLen, meta.NumSeqs),
	}
	if w.staging == nil {
		w.staging = node.Shared
		w.prefix = fmt.Sprintf("scratch/rank%03d/", r.ID())
	}
	w.submit = w.emit

	if meta.Serve {
		return w.serveStream()
	}
	return w.oneShot(boot.Queries)
}

// oneShot is the worker's driver for a one-shot run: search greedily
// assigned fragments until released, fold the tree (tree protocol), serve
// fetches.
func (w *worker) oneShot(queries []*seq.Sequence) error {
	r, meta := w.r, w.meta
	w.begin(queries)
	searchedAny := false
	for {
		// Waiting for an assignment is startup time before the first
		// fragment; afterwards the wait queues behind the master's result
		// ingestion and belongs to the output (merging) phase.
		if searchedAny {
			r.SetPhase(simtime.PhaseOutput)
		} else {
			r.SetPhase(simtime.PhaseOther)
		}
		r.Send(0, tagWorkReq, nil)
		data, _, _ := r.Recv(0, tagAssign)
		fragID, err := engine.DecodeInt(data)
		if err != nil {
			return err
		}
		if fragID < 0 {
			break
		}
		searchedAny = true
		frag, err := w.stageFragment(meta.FragBases[fragID])
		if err != nil {
			return err
		}
		if err := w.search(fragID, frag); err != nil {
			return err
		}
	}
	if meta.Tree {
		if err := w.fold(); err != nil {
			return err
		}
	}
	return w.serveFetches()
}

// serveStream is the worker's driver for a serving run. Warmup copies and
// loads this worker's static share of the fragments ONCE — in the one-shot
// baseline that cost is paid inside the timed run per assignment; here it
// is amortized over the whole stream — and every batch then searches the
// resident fragments with no copy and no load: the warm-cluster payoff.
func (w *worker) serveStream() error {
	r, meta := w.r, w.meta
	mine := engine.StaticShare(len(meta.FragBases), r.Size()-1, r.ID())
	resident := make([]*blast.Fragment, 0, len(mine))
	for _, fragID := range mine {
		frag, err := w.stageFragment(meta.FragBases[fragID])
		if err != nil {
			return err
		}
		resident = append(resident, frag)
	}
	for {
		queries, ok, err := engine.NextBatch(r)
		if err != nil || !ok {
			return err
		}
		w.begin(queries)
		for i, frag := range resident {
			if err := w.search(mine[i], frag); err != nil {
				return err
			}
		}
		if meta.Tree {
			if err := w.fold(); err != nil {
				return err
			}
		}
		// Fetch service until this batch's release, then loop back to the
		// next batch broadcast.
		if err := w.serveFetches(); err != nil {
			return err
		}
	}
}

// begin installs the query set and clears what the previous one produced.
func (w *worker) begin(queries []*seq.Sequence) {
	w.loop.Begin(queries)
	w.residues = make(map[fetchKey][]byte)
	if w.meta.Tree {
		w.bundle = treeResults{Work: make([]blast.WorkCounters, len(queries)), Hits: make([][]treeHit, len(queries))}
	}
}

// stageFragment is the copy stage plus the import: copy the fragment's
// files from the shared FS to local staging, file by file, then read the
// staged copy into memory. NCBI BLAST memory-maps the fragment files, so the
// import I/O is embedded in search time (the paper observes exactly that).
func (w *worker) stageFragment(base string) (*blast.Fragment, error) {
	r := w.r
	r.SetPhase(simtime.PhaseCopy)
	for _, path := range formatdb.FragmentFiles(base) {
		src, err := mpiio.Open(r, w.node.Shared, path)
		if err != nil {
			return nil, err
		}
		content := src.ReadAt(0, src.Size())
		dst := mpiio.OpenOrCreate(r, w.staging, w.prefix+path)
		dst.WriteAt(content, 0)
	}
	r.SetPhase(simtime.PhaseSearch)
	return loadFragment(r, w.staging, w.prefix+base)
}

// search runs the current queries against one fragment through the shared
// loop; emit routes each (query, fragment) result.
func (w *worker) search(fragID int, frag *blast.Fragment) error {
	w.fragID, w.frag = fragID, frag
	return w.loop.Search(frag, w.submit)
}

// emit keeps the residues the master may fetch for every hit, then either
// adds the hits to the tree bundle or — the flat protocol — submits them to
// the master at once.
func (w *worker) emit(qi int, res *blast.QueryResult) {
	r := w.r
	for _, hit := range res.Hits {
		w.residues[fetchKey{Query: qi, OID: hit.OID}] = w.frag.Subjects[engine.IndexByOID(w.frag, hit.OID)].Residues
	}
	if w.meta.Tree {
		for _, hit := range res.Hits {
			w.bundle.Hits[qi] = append(w.bundle.Hits[qi], treeHit{Worker: r.ID(), Hit: engine.PackHit(hit, nil)})
		}
		w.bundle.Work[qi].Add(res.Work)
		return
	}
	msg := resultsMsg{Query: qi, Fragment: w.fragID, Worker: r.ID(), Work: res.Work}
	for _, hit := range res.Hits {
		msg.Hits = append(msg.Hits, engine.PackHit(hit, nil))
	}
	r.SetPhase(simtime.PhaseOutput)
	r.Send(0, tagResults, msg.encode())
	r.SetPhase(simtime.PhaseSearch)
}

// fold pre-merges the bundle locally (the "group" contribution: every query
// capped to the global top-k before the payload enters the tree) and folds
// it into the reduction.
func (w *worker) fold() error {
	r := w.r
	r.SetPhase(simtime.PhaseOutput)
	maxTargets := w.loop.MaxTargets()
	for qi := range w.bundle.Hits {
		w.bundle.Hits[qi] = sortCapTreeHits(w.bundle.Hits[qi], maxTargets)
	}
	var combErr error
	if _, _, err := r.TreeReduce(0, w.meta.TreeFanout, nil, w.bundle.encode(), treeResultsCombiner(r, maxTargets, &combErr)); err != nil {
		return err
	}
	return combErr
}

// serveFetches is the fetch service: answer the master's per-hit data
// requests until released. All waiting here is result-processing (output)
// time.
func (w *worker) serveFetches() error {
	r := w.r
	r.SetPhase(simtime.PhaseOutput)
	for {
		data, _, tag := r.Recv(0, mpi.AnyTag)
		if tag == tagRelease {
			return nil
		}
		var key fetchKey
		c := engine.Decoder(data)
		if err := key.code(&c).Err(); err != nil {
			return err
		}
		residues, ok := w.residues[key]
		if !ok {
			r.Metrics().Counter("engine.cache_misses", r.ID()).Inc()
			return fmt.Errorf("mpiblast: worker %d asked for unknown hit %+v", r.ID(), key)
		}
		r.Metrics().Counter("engine.cache_hits", r.ID()).Inc()
		r.Send(0, tagHitData, residues)
	}
}

// loadFragment reads a staged fragment database into memory with charged
// I/O and wraps it as a kernel fragment.
func loadFragment(r *mpi.Rank, fs *vfs.FS, base string) (*blast.Fragment, error) {
	for _, path := range formatdb.FragmentFiles(base) {
		f, err := mpiio.Open(r, fs, path)
		if err != nil {
			return nil, err
		}
		f.ReadAt(0, f.Size()) // charge the (mmap-equivalent) input
	}
	db, err := formatdb.Open(fs, base)
	if err != nil {
		return nil, err
	}
	recs, err := db.ReadAll(fs)
	if err != nil {
		return nil, err
	}
	return engine.FragmentFromRecords(recs), nil
}
