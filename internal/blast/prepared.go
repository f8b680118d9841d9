package blast

import (
	"fmt"
	"runtime"
	"sync"

	"parblast/internal/seq"
)

// PreparedQuery is the immutable part of a loaded query: everything that
// depends only on the query's residues and the searcher's options, and so
// can be built once and read by any number of Contexts at the same time.
// The sequence itself (its ID) and all search scratch stay in the Context.
type PreparedQuery struct {
	seeding []byte     // residues the index was built from, low-complexity masked
	idx     *wordIndex // read-only after Prepare
	// work is what the build cost. SearchFragment adds it to every result:
	// the modelled worker rebuilds the index for each (fragment, query) it
	// searches, however often the host really did.
	work WorkCounters
}

// Prepare builds the word lookup table for the query. It is the one build
// path: Context.SetQuery and QueryBank.Get both end here.
func (s *Searcher) Prepare(q *seq.Sequence) (*PreparedQuery, error) {
	if err := s.checkAlphabet(q); err != nil {
		return nil, err
	}
	seeding := q.Residues
	if s.opts.FilterLowComplexity {
		seeding, _ = MaskForSeeding(q.Residues, q.Alpha, DefaultFilterParams(q.Alpha.Kind()))
	}
	idx, err := buildIndex(seeding, &s.opts)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{
		seeding: seeding,
		idx:     idx,
		work:    WorkCounters{ResiduesScanned: int64(q.Len()), IndexWords: idx.neighbors},
	}, nil
}

func (s *Searcher) checkAlphabet(q *seq.Sequence) error {
	if q.Alpha != s.opts.Matrix.Alphabet() {
		return fmt.Errorf("blast: query %q alphabet %s does not match matrix %s",
			q.ID, q.Alpha.Kind(), s.opts.Matrix.Name())
	}
	return nil
}

// QueryBank is one job's set of prepared queries, shared by every rank
// goroutine of the run so that each distinct query is indexed once per job
// instead of once per rank × fragment × query. Entries are keyed by residue
// content, not by *seq.Sequence or ID: the master and the workers hold
// different copies of the query set, and two queries with equal residues
// share one index while each context reports its own ID. Entries build
// lazily on first request.
//
// The bank also owns the job's kernel scratch. A rank holds a Context — its
// diagonal array, DP rows, traceback arena and pool clones — only while it is
// inside the kernel, so the bank lends one for the duration of a search
// (Lend, TakeBack). Ranks search concurrently, off the simulator's token, but
// no more of them than the host has cores (GOMAXPROCS) hold a context at
// once, so a job keeps at most that many, not one per rank. Results own their
// bytes: nothing a search returns points into the scratch.
//
// A bank is safe for concurrent use and is never reused across jobs.
type QueryBank struct {
	s *Searcher

	mu       sync.Mutex
	entries  map[string]*bankEntry
	idle     []*Context // lent out and taken back, no query loaded
	returned sync.Cond  // on mu: a context came back
	stats    BankStats
}

type bankEntry struct {
	once  sync.Once
	build func() // bound at insertion, so a hit allocates nothing
	p     *PreparedQuery
	err   error
}

// BankStats is a bank's host-side accounting. Which goroutine happened to
// build an entry is a scheduling artifact, so there is no per-rank split.
type BankStats struct {
	Builds      int64 // indexes built
	Reuses      int64 // requests served from an existing entry
	Entries     int   // entries held now
	PeakEntries int   // most entries held at once
	// Contexts counts the scratch contexts created: the most ever lent at
	// once, at most GOMAXPROCS. Host timing sets it, so it varies run to run.
	Contexts int64
	Lends    int64 // searches that borrowed one
}

// NewQueryBank creates the empty bank of one job searching with opts.
func NewQueryBank(opts Options) (*QueryBank, error) {
	s, err := NewSearcher(opts)
	if err != nil {
		return nil, err
	}
	b := &QueryBank{s: s, entries: make(map[string]*bankEntry)}
	b.returned.L = &b.mu
	return b, nil
}

// Searcher returns the searcher the bank prepares with; contexts that load
// the bank's entries must come from it.
func (b *QueryBank) Searcher() *Searcher { return b.s }

// Get returns the prepared form of q, building it if no entry with q's
// residues exists. Concurrent requests for one entry wait for a single
// build.
func (b *QueryBank) Get(q *seq.Sequence) (*PreparedQuery, error) {
	// Residue codes mean nothing without their alphabet; reject a foreign
	// one before it can claim the key of a legitimate query.
	if err := b.s.checkAlphabet(q); err != nil {
		return nil, err
	}
	b.mu.Lock()
	e, hit := b.entries[string(q.Residues)]
	if hit {
		b.stats.Reuses++
	} else {
		e = &bankEntry{}
		e.build = func() { e.p, e.err = b.s.Prepare(q) }
		b.entries[string(q.Residues)] = e
		b.stats.Builds++
		b.stats.PeakEntries = max(b.stats.PeakEntries, len(b.entries))
	}
	b.mu.Unlock()
	e.once.Do(e.build)
	return e.p, e.err
}

// Lend hands out a scratch context of the bank's searcher with no query
// loaded, creating one only when every existing one is out. While
// GOMAXPROCS contexts are out it waits for one to come back, so every
// borrower must give its context back with TakeBack without waiting on
// anything a waiting lender could hold: a simulated rank borrows inside
// mpi.Rank.Aside and returns the context before it asks for the scheduler
// token again.
func (b *QueryBank) Lend() *Context {
	b.mu.Lock()
	defer b.mu.Unlock()
	for int(b.stats.Contexts)-len(b.idle) >= runtime.GOMAXPROCS(0) {
		b.returned.Wait()
	}
	b.stats.Lends++
	if n := len(b.idle); n > 0 {
		c := b.idle[n-1]
		b.idle = b.idle[:n-1]
		return c
	}
	b.stats.Contexts++
	return b.s.NewContext()
}

// TakeBack ends a loan: the context is unloaded, so an idle one pins no
// query and no released index, and becomes the next Lend's.
func (b *QueryBank) TakeBack(c *Context) {
	c.unload()
	b.mu.Lock()
	b.idle = append(b.idle, c)
	b.mu.Unlock()
	b.returned.Signal()
}

// Release drops the entries for the given queries: a serving run calls it
// once a batch is settled, which bounds the bank by the batch rather than
// the stream. Contexts still holding a released index keep it alive until
// they load their next query; a later Get for the same residues rebuilds.
func (b *QueryBank) Release(queries []*seq.Sequence) {
	b.mu.Lock()
	for _, q := range queries {
		delete(b.entries, string(q.Residues))
	}
	b.mu.Unlock()
}

// Stats returns the bank's accounting so far.
func (b *QueryBank) Stats() BankStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.stats
	st.Entries = len(b.entries)
	return st
}
