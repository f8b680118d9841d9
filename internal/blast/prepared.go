package blast

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"parblast/internal/seq"
	"parblast/internal/stats"
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
// a query set with equal residues shares one index while each search reports
// its own IDs. Entries build on first request, by every requester that
// arrives while the build is open (batchBuild).
//
// The bank is also the job's kernel executor (Search): at most W scratch
// slots, a Context each, W = Options.SearchThreads (0: GOMAXPROCS), claim
// the subjects of every rank's search one at a time. A lone search runs
// W-wide, and a job holds W scratch sets however many ranks search. Results
// own their bytes: nothing a search returns points into a slot.
//
// Builds draw their buffers from the bank's spares: the enumeration buffers
// every finished build dropped, and the CSR arrays of entries released while
// no search was in flight. Nothing is kept across jobs.
//
// A bank is safe for concurrent use and is never reused across jobs.
type QueryBank struct {
	s *Searcher
	w int // kernel slots, at most

	mu      sync.Mutex
	entries map[string]*batchBuild
	key     []byte // batchKey scratch
	held    int    // distinct residue contents over the entries
	stats   BankStats
	spare   spares // what the bank's builds dropped, for its next builds

	// The executor, under mu: the idle slots (stats.Contexts were made), the
	// requests with subjects unclaimed, oldest first, finished requests kept
	// for reuse and the helper goroutines alive (at most w−1). searching
	// counts the searches between their index lookup and their end.
	free      []*Context
	open      []*request
	done      []*request
	helpers   int
	searching atomic.Int64
}

// BankStats is a bank's host-side accounting, per query: a batch of n
// queries is n lookups. Which goroutine happened to enumerate a query or
// search a subject is a scheduling artifact, so there is no per-rank split.
type BankStats struct {
	Builds      int64 // distinct residue contents indexed, once per batch entry
	Reuses      int64 // lookups served without a build: every other one
	Entries     int   // distinct residue contents held now
	PeakEntries int   // most held at once
	// Contexts counts the kernel slots made, at most W. Host timing sets
	// it, so it varies run to run.
	Contexts int64
	Searches int64 // requests the executor ran
}

// NewQueryBank creates the empty bank of one job searching with opts.
func NewQueryBank(opts Options) (*QueryBank, error) {
	s, err := NewSearcher(opts)
	if err != nil {
		return nil, err
	}
	w := opts.SearchThreads
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &QueryBank{s: s, w: w, entries: make(map[string]*batchBuild)}, nil
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

// get returns the prepared form of queries, building it if no entry with
// their residues, in their order, exists. Concurrent requests for an entry
// still being built share the build's work, then wait for its merge.
func (b *QueryBank) get(queries []*seq.Sequence) (*PreparedBatch, error) {
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

// Release drops the entry for the given query set: a serving run calls it
// once a batch is settled, which bounds the bank by the batch rather than
// the stream. When no search is in flight, nothing can hold the released
// index (a slot drops it when it leaves a request), and its arrays go to the
// bank's next builds; otherwise a search still holding it keeps it alive. A
// later search of the same residues rebuilds.
func (b *QueryBank) Release(queries []*seq.Sequence) {
	b.mu.Lock()
	b.key = batchKey(b.key[:0], queries)
	if e, ok := b.entries[string(b.key)]; ok {
		b.held -= e.distinct()
		delete(b.entries, string(b.key))
		if b.searching.Load() == 0 && e.done.Load() == int64(e.distinct()) {
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

// request is one search. Its subjects are claimed through next;
// slots[qi*len(frag.Subjects)+i] is query qi's outcome on subject i, and
// work[qi] the sum of its searchers' tallies, which no claim order changes.
// Under the bank's mu, active counts the slots searching it and its caller
// sleeps on wake.
type request struct {
	queries []*seq.Sequence
	prep    *PreparedBatch
	frag    *Fragment
	spaces  []stats.SearchSpace
	next    atomic.Int64
	slots   []*SubjectResult
	work    []WorkCounters
	active  int
	wake    sync.Cond
}

// load points r at a search with nothing claimed, its slots and tallies
// empty.
func (r *request) load(queries []*seq.Sequence, p *PreparedBatch, frag *Fragment, spaces []stats.SearchSpace) {
	n := len(queries) * len(frag.Subjects)
	r.queries, r.prep, r.frag, r.spaces = queries, p, frag, spaces
	r.slots = slices.Grow(r.slots[:0], n)[:n]
	r.work = slices.Grow(r.work[:0], len(queries))[:len(queries)]
	clear(r.work)
	r.next.Store(0)
}

// unclaimed reports whether a subject of r is left to claim.
func (r *request) unclaimed() bool { return r.next.Load() < int64(len(r.frag.Subjects)) }

// results appends r's outcome to dst, one result per query in order: the
// query's build and scan work, its hits reassembled in subject order — the
// sequential append order — then sorted canonically and capped. The results
// are the caller's now: r keeps none of them.
func (s *Searcher) results(dst []*QueryResult, r *request) []*QueryResult {
	ns := len(r.frag.Subjects)
	for qi, q := range r.queries {
		res := &QueryResult{QueryID: q.ID, Work: r.prep.work[qi]}
		res.Work.Add(r.work[qi])
		for _, h := range r.slots[qi*ns : (qi+1)*ns] {
			if h != nil {
				res.Hits = append(res.Hits, h)
			}
		}
		SortHits(res.Hits)
		if len(res.Hits) > s.opts.MaxTargetSeqs {
			res.Hits = res.Hits[:s.opts.MaxTargetSeqs]
		}
		dst = append(dst, res)
	}
	clear(r.slots)
	return dst
}

// drain searches r's subjects, one claim at a time, until none is left to
// claim, tallying into c.works.
func (c *Context) drain(r *request) {
	c.prep = r.prep
	c.beginScans(r.queries, r.spaces)
	ns := len(r.frag.Subjects)
	for i := int(r.next.Add(1)) - 1; i < ns; i = int(r.next.Add(1)) - 1 {
		sub := &r.frag.Subjects[i]
		c.searchSubject(sub.Residues)
		for qi := range c.scans {
			r.slots[qi*ns+i] = c.scans[qi].result(sub, r.spaces[qi])
		}
	}
}

// Search runs queries against every subject of frag on the bank's kernel
// executor and appends one result per query, in order, to dst; spaces[i] is
// query i's search space. The results are a standalone context's bit for
// bit. The caller searches on its own goroutine in a slot, once one is free,
// while idle slots claim its other subjects.
func (b *QueryBank) Search(dst []*QueryResult, queries []*seq.Sequence, frag *Fragment, spaces []stats.SearchSpace) ([]*QueryResult, error) {
	if len(spaces) != len(queries) {
		return dst, fmt.Errorf("blast: %d search spaces for %d queries", len(spaces), len(queries))
	}
	b.searching.Add(1) // before get: Release must not recycle the index
	defer b.searching.Add(-1)
	p, err := b.get(queries)
	if err == nil {
		dst = b.search(dst, queries, p, frag, spaces)
	}
	return dst, err
}

// search is Search with the index given.
func (b *QueryBank) search(dst []*QueryResult, queries []*seq.Sequence, p *PreparedBatch, frag *Fragment, spaces []stats.SearchSpace) []*QueryResult {
	b.mu.Lock()
	b.stats.Searches++
	var r *request
	if n := len(b.done); n > 0 {
		r, b.done = b.done[n-1], b.done[:n-1]
	} else {
		r = &request{}
		r.wake.L = &b.mu
	}
	r.load(queries, p, frag, spaces)
	if len(frag.Subjects) > 0 {
		b.open = append(b.open, r)
		b.spawn(min(len(frag.Subjects), b.idle()) - 1) // one slot is the caller's
	}
	b.run(r)
	b.mu.Unlock()
	dst = b.s.results(dst, r)
	r.queries, r.prep, r.frag, r.spaces = nil, nil, nil, nil
	b.mu.Lock()
	b.done = append(b.done, r)
	b.mu.Unlock()
	return dst
}

// run is one goroutine's turn on the executor, entered and left with b.mu
// held: a caller's (own set) until its request is searched, a helper's (own
// nil) until no request it may join has a subject unclaimed. A helper joins
// only requests a slot already searches and leaves its slot to a caller
// waiting for one, so the kernel runs on callers' goroutines where it can
// (DESIGN §8 says why).
func (b *QueryBank) run(own *request) {
	var slot *Context
	for own == nil || own.unclaimed() || own.active > 0 {
		r := own
		if own == nil && b.oldest(true) == nil {
			r = b.oldest(false)
		} else if own == nil || !own.unclaimed() {
			r = nil
		}
		if r != nil && slot == nil {
			slot = b.takeSlot()
		}
		if r == nil || slot == nil {
			if own == nil {
				break
			}
			own.wake.Wait()
			continue
		}
		r.active++
		b.mu.Unlock()
		slot.drain(r)
		b.mu.Lock()
		r.active--
		b.open = slices.DeleteFunc(b.open, func(o *request) bool { return o == r })
		for qi := range r.work {
			r.work[qi].Add(slot.works[qi])
		}
		slot.unload()
		if r == own { // a caller's only claims are its own
			b.putSlot(slot)
			slot = nil
		} else if r.active == 0 {
			r.wake.Signal() // r is searched
		}
	}
	if slot != nil {
		b.putSlot(slot)
	}
}

// oldest returns the oldest request with a subject unclaimed and, if
// unsearched, no slot searching it — its caller waits for a slot —, or nil.
func (b *QueryBank) oldest(unsearched bool) *request {
	for _, r := range b.open {
		if r.unclaimed() && (!unsearched || r.active == 0) {
			return r
		}
	}
	return nil
}

// idle is how many slots are free or can still be made.
func (b *QueryBank) idle() int { return len(b.free) + b.w - int(b.stats.Contexts) }

// takeSlot returns an idle slot, making one while fewer than w exist, or nil.
func (b *QueryBank) takeSlot() *Context {
	if n := len(b.free); n > 0 {
		c := b.free[n-1]
		b.free = b.free[:n-1]
		return c
	}
	if b.idle() == 0 {
		return nil
	}
	b.stats.Contexts++
	return b.s.NewContext()
}

// putSlot makes slot idle and hands it on: to the caller of the oldest
// request nobody searches, else to a new helper if a request has a subject
// unclaimed.
func (b *QueryBank) putSlot(slot *Context) {
	b.free = append(b.free, slot)
	if r := b.oldest(true); r != nil {
		r.wake.Signal()
	} else if b.oldest(false) != nil {
		b.spawn(1)
	}
}

// spawn starts up to n helpers, keeping at most w−1 alive.
func (b *QueryBank) spawn(n int) {
	for n = min(n, b.w-1-b.helpers); n > 0; n-- {
		b.helpers++
		go b.help()
	}
}

// help is a helper goroutine's body.
func (b *QueryBank) help() {
	b.mu.Lock()
	b.run(nil)
	b.helpers--
	b.mu.Unlock()
}
