package blast

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"parblast/internal/seq"
)

// PreparedBatch is the immutable part of a loaded query set: everything that
// depends only on the queries' residues and the searcher's options — one
// word index over all of them, cut into groups only where its offsets would
// pass int32 — and so can be built once and read by any number of Contexts
// at the same time. The sequences themselves (their IDs) and all search
// scratch stay in the Context.
type PreparedBatch struct {
	lens   []int // each query's length, to check a load against
	groups []batchIndex
	// work[i] is what query i's build cost. The search adds it to query i's
	// result: the modelled worker rebuilds the index for each (fragment,
	// query) it searches, however often the host really did.
	work []WorkCounters
}

// prepareBatch builds the word index of a query set on the calling goroutine.
func (s *Searcher) prepareBatch(queries []*seq.Sequence) (*PreparedBatch, error) {
	for _, q := range queries {
		if err := s.checkAlphabet(q); err != nil {
			return nil, err
		}
	}
	return s.newBatchBuild(queries, nil).get(), nil
}

func (s *Searcher) checkAlphabet(q *seq.Sequence) error {
	if q.Alpha != s.opts.Matrix.Alphabet() {
		return fmt.Errorf("blast: query %q alphabet %s does not match matrix %s",
			q.ID, q.Alpha.Kind(), s.opts.Matrix.Name())
	}
	return nil
}

// batchBuild is a batch index under construction. Every caller that needs it
// helps: it claims the next query nobody has enumerated yet, enumerates it,
// and repeats until none is left; whoever finishes the last enumeration
// merges, and everyone else waits for that. Equal residues are enumerated
// once, at their first position in the batch.
type batchBuild struct {
	s       *Searcher
	spare   *spares // the bank's, or nil outside a bank
	queries []*seq.Sequence
	src     []int      // src[i]: the first batch position with query i's residues
	todo    []int      // the positions to enumerate: every src[i] == i
	pairs   [][]uint64 // pairs[i]: query i's registrations (Searcher.enumerate)
	next    atomic.Int64
	done    atomic.Int64
	ready   sync.WaitGroup
	p       *PreparedBatch
}

// newBatchBuild starts the build of queries' index, drawing its buffers from
// spare (nil: allocate them); nothing is enumerated yet.
func (s *Searcher) newBatchBuild(queries []*seq.Sequence, spare *spares) *batchBuild {
	b := &batchBuild{s: s, spare: spare, queries: queries, src: make([]int, len(queries)),
		todo: make([]int, 0, len(queries)), pairs: make([][]uint64, len(queries))}
	var seen map[string]int
	if len(queries) > 1 {
		seen = make(map[string]int, len(queries))
	}
	for i, q := range queries {
		j, dup := seen[string(q.Residues)]
		if !dup {
			j = i
			b.todo = append(b.todo, i)
			if seen != nil {
				seen[string(q.Residues)] = i
			}
		}
		b.src[i] = j
	}
	b.ready.Add(1)
	if len(b.todo) == 0 {
		b.merge()
	}
	return b
}

// distinct is how many residue contents the batch holds.
func (b *batchBuild) distinct() int { return len(b.todo) }

// get helps with the build until nothing is left to claim and returns the
// index once it is merged. Each query's registrations are counted first and
// then written once, into a buffer of exactly that size.
func (b *batchBuild) get() *PreparedBatch {
	n := int64(len(b.todo))
	for k := b.next.Add(1) - 1; k < n; k = b.next.Add(1) - 1 {
		i := b.todo[k]
		seeding := b.queries[i].Residues
		if b.s.opts.FilterLowComplexity {
			seeding, _ = MaskForSeeding(seeding, b.queries[i].Alpha, DefaultFilterParams(b.queries[i].Alpha.Kind()))
		}
		b.pairs[i] = b.s.enumerate(b.spare.pairs(b.s.registrations(seeding)), seeding)
		if b.done.Add(1) == n {
			b.merge()
		}
	}
	b.ready.Wait()
	return b.p
}

// merge lays the enumerated registrations out as the batch's groups and lets
// the waiters go. It hands the enumeration scratch back to the spares: the
// entry keeps only the index.
func (b *batchBuild) merge() {
	p := &PreparedBatch{lens: make([]int, len(b.queries)), work: make([]WorkCounters, len(b.queries))}
	for i, q := range b.queries {
		b.pairs[i] = b.pairs[b.src[i]]
		p.lens[i] = q.Len()
		p.work[i] = WorkCounters{ResiduesScanned: int64(q.Len()), IndexWords: int64(len(b.pairs[i]))}
	}
	for lo := 0; lo < len(b.queries); {
		hi, longest := groupEnd(p.lens, b.pairs, lo)
		p.groups = append(p.groups, b.s.buildGroup(b.spare, b.pairs, lo, hi, longest))
		lo = hi
	}
	for _, i := range b.todo {
		b.spare.putPairs(b.pairs[i])
	}
	b.p, b.pairs = p, nil
	b.ready.Done()
}

// spares is what a bank's builds have dropped, kept for the bank's next
// builds: the enumeration buffers of every finished build, and the CSR arrays
// of released entries. A nil *spares keeps nothing, and its takers allocate.
type spares struct {
	mu      sync.Mutex
	regs    [][]uint64
	offsets [][]int32
	entries [][]uint32
}

// pairs returns an empty enumeration buffer with room for n registrations.
func (sp *spares) pairs(n int) []uint64 {
	if sp == nil {
		return make([]uint64, 0, n)
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return takeSpare(&sp.regs, n)
}

func (sp *spares) putPairs(buf []uint64) {
	if sp != nil && cap(buf) > 0 {
		sp.mu.Lock()
		sp.regs = append(sp.regs, buf)
		sp.mu.Unlock()
	}
}

// csr returns a group's arrays: n entries and, when dense, size zeroed row
// offsets.
func (sp *spares) csr(n, size int) (entries []uint32, offsets []int32) {
	if sp == nil {
		if size > 0 {
			offsets = make([]int32, size)
		}
		return make([]uint32, n), offsets
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if size > 0 {
		offsets = takeSpare(&sp.offsets, size)[:size]
		clear(offsets)
	}
	return takeSpare(&sp.entries, n)[:n], offsets
}

// putIndex keeps a released index's arrays. The caller guarantees nothing
// can read the index any more.
func (sp *spares) putIndex(p *PreparedBatch) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for _, g := range p.groups {
		if cap(g.entries) > 0 {
			sp.entries = append(sp.entries, g.entries)
		}
		if cap(g.offsets) > 0 {
			sp.offsets = append(sp.offsets, g.offsets)
		}
	}
}

// takeSpare removes and returns, emptied, the smallest buffer of spare with
// room for n; with none, it returns a new one of exactly n and drops the
// largest spare, too small for this build and so likely for the next, which
// keeps the list within one build's worth of buffers.
func takeSpare[T any](spare *[][]T, n int) []T {
	best, largest := -1, -1
	for i, buf := range *spare {
		if cap(buf) >= n && (best < 0 || cap(buf) < cap((*spare)[best])) {
			best = i
		}
		if largest < 0 || cap(buf) > cap((*spare)[largest]) {
			largest = i
		}
	}
	if best < 0 {
		if largest >= 0 {
			removeSpare(spare, largest)
		}
		return make([]T, 0, n)
	}
	buf := (*spare)[best]
	removeSpare(spare, best)
	return buf[:0]
}

func removeSpare[T any](spare *[][]T, i int) {
	last := len(*spare) - 1
	(*spare)[i], (*spare)[last] = (*spare)[last], nil
	*spare = (*spare)[:last]
}

// QueryBank is one job's set of prepared query batches, shared by every rank
// goroutine of the run so that each batch is indexed once per job instead of
// once per rank × fragment. A batch is the query set a worker searches every
// fragment against — the job's queries in a one-shot run, one admitted batch
// when serving. Entries are keyed by residue content, not by *seq.Sequence or
// ID: the master and the workers hold different copies of the query set, and
// a query set with equal residues shares one index while each context
// reports its own IDs. Entries build on first request, by every requester
// that arrives while the build is open (batchBuild).
//
// The bank also owns the job's kernel scratch. A rank holds a Context — its
// diagonal array, DP rows, traceback arena and pool clones — only while it is
// inside the kernel, so the bank lends one for the duration of a search
// (Lend, TakeBack). Ranks search concurrently, off the simulator's token, but
// no more of them than the host has cores (GOMAXPROCS) hold a context at
// once, so a job keeps at most that many contexts, not one per rank. Each
// lent context drives its own search pool of up to GOMAXPROCS − 1 clones
// (searchParallel), each with scratch of its own, so a job holds up to
// GOMAXPROCS² scratch sets: one job-wide kernel executor would bound them by
// GOMAXPROCS (ROADMAP item 12). Results own their bytes: nothing a search
// returns points into the scratch.
//
// Builds draw their buffers from the bank's spares: the enumeration buffers
// every finished build dropped, and the CSR arrays of entries released while
// no context was lent. Nothing is kept across jobs.
//
// A bank is safe for concurrent use and is never reused across jobs.
type QueryBank struct {
	s *Searcher

	mu       sync.Mutex
	entries  map[string]*batchBuild
	key      []byte     // batchKey scratch
	held     int        // distinct residue contents over the entries
	idle     []*Context // lent out and taken back, no query loaded
	returned sync.Cond  // on mu: a context came back
	stats    BankStats
	spare    spares // what the bank's builds dropped, for its next builds
}

// BankStats is a bank's host-side accounting, per query: a batch of n
// queries is n lookups. Which goroutine happened to enumerate a query is a
// scheduling artifact, so there is no per-rank split.
type BankStats struct {
	Builds      int64 // distinct residue contents indexed, once per batch entry
	Reuses      int64 // lookups served without a build: every other one
	Entries     int   // distinct residue contents held now
	PeakEntries int   // most held at once
	// Contexts counts the scratch contexts created: the most ever lent at
	// once, at most GOMAXPROCS (each with up to GOMAXPROCS − 1 pool clones).
	// Host timing sets it, so it varies run to run.
	Contexts int64
	Lends    int64 // searches that borrowed one
}

// NewQueryBank creates the empty bank of one job searching with opts.
func NewQueryBank(opts Options) (*QueryBank, error) {
	s, err := NewSearcher(opts)
	if err != nil {
		return nil, err
	}
	b := &QueryBank{s: s, entries: make(map[string]*batchBuild)}
	b.returned.L = &b.mu
	return b, nil
}

// Searcher returns the searcher the bank prepares with; contexts that load
// the bank's entries must come from it.
func (b *QueryBank) Searcher() *Searcher { return b.s }

// batchKey appends the residue content of queries to dst, each query's
// length first, so that no two query sets share a key.
func batchKey(dst []byte, queries []*seq.Sequence) []byte {
	for _, q := range queries {
		dst = binary.AppendUvarint(dst, uint64(q.Len()))
		dst = append(dst, q.Residues...)
	}
	return dst
}

// Get returns the prepared form of queries, building it if no entry with
// their residues, in their order, exists. Concurrent requests for an entry
// still being built share the build's work, then wait for its merge.
func (b *QueryBank) Get(queries []*seq.Sequence) (*PreparedBatch, error) {
	// Residue codes mean nothing without their alphabet; reject a foreign
	// one before it can claim the key of a legitimate query.
	for _, q := range queries {
		if err := b.s.checkAlphabet(q); err != nil {
			return nil, err
		}
	}
	b.mu.Lock()
	b.key = batchKey(b.key[:0], queries)
	e, hit := b.entries[string(b.key)]
	b.stats.Reuses += int64(len(queries))
	if !hit {
		e = b.s.newBatchBuild(queries, &b.spare)
		b.entries[string(b.key)] = e
		b.stats.Builds += int64(e.distinct())
		b.stats.Reuses -= int64(e.distinct())
		b.held += e.distinct()
		b.stats.PeakEntries = max(b.stats.PeakEntries, b.held)
	}
	b.mu.Unlock()
	return e.get(), nil
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

// TakeBack ends a loan: the context drops its queries and its fragment, not
// the encoding's arena, so an idle one pins neither and becomes the next
// Lend's.
func (b *QueryBank) TakeBack(c *Context) {
	c.unload()
	c.wordsOf = nil
	b.mu.Lock()
	b.idle = append(b.idle, c)
	b.mu.Unlock()
	b.returned.Signal()
}

// Release drops the entry for the given query set: a serving run calls it
// once a batch is settled, which bounds the bank by the batch rather than
// the stream. When no context is lent out, nothing can hold the released
// index (a context drops it when taken back), and its arrays go to the
// bank's next builds; otherwise a context still holding it keeps it alive
// until it loads its next queries. A later Get for the same residues
// rebuilds. An index Get returned is read only while the context it was
// loaded into is lent.
func (b *QueryBank) Release(queries []*seq.Sequence) {
	b.mu.Lock()
	b.key = batchKey(b.key[:0], queries)
	if e, ok := b.entries[string(b.key)]; ok {
		b.held -= e.distinct()
		delete(b.entries, string(b.key))
		if int(b.stats.Contexts) == len(b.idle) && e.done.Load() == int64(e.distinct()) {
			e.ready.Wait() // the last enumeration is merging: a moment
			b.spare.putIndex(e.p)
		}
	}
	b.mu.Unlock()
}

// Stats returns the bank's accounting so far.
func (b *QueryBank) Stats() BankStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.stats
	st.Entries = b.held
	return st
}
