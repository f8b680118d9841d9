package blast

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"parblast/internal/seq"
	"parblast/internal/stats"
	"parblast/internal/wiretest"
)

// bankFixture is a fragment with a homolog of every query planted in it, so
// searches through the bank produce real alignments to compare.
func bankFixture(seed int64, nQueries int) (*Fragment, []*seq.Sequence) {
	rng := rand.New(rand.NewSource(seed))
	frag := testFragment(rng, 24, 300)
	queries := make([]*seq.Sequence, nQueries)
	for i := range queries {
		queries[i] = proteinSeq(fmt.Sprintf("q%d", i), randomProtein(rng, 90+10*i))
		hom := mutate(rng, queries[i].Residues, 0.15)
		copy(frag.Subjects[3*i].Residues[5:], hom[:min(len(hom), 280)])
	}
	return frag, queries
}

// searchVia searches q through the bank and renders the search's output.
func searchVia(t *testing.T, bank *QueryBank, q *seq.Sequence, frag *Fragment) string {
	t.Helper()
	res, err := bank.Search(nil, []*seq.Sequence{q}, frag, []stats.SearchSpace{spaceFor(bank.Searcher(), q.Len(), frag)})
	if err != nil {
		t.Error(err)
		return ""
	}
	return render(t, bank.Searcher(), q, frag, res[0])
}

// render is a result as text: ID, work counters and every hit's block.
func render(t *testing.T, s *Searcher, q *seq.Sequence, frag *Fragment, res *QueryResult) string {
	return fmt.Sprintf("%s %+v\n", res.QueryID, res.Work) + renderAll(t, s, q, frag, res)
}

// TestQueryBankKeyedByContent: two sequences with equal residues and
// different IDs share one index, each reports under its own ID, and both
// match what a private SetQuery build produces — build work included.
func TestQueryBankKeyedByContent(t *testing.T) {
	frag, queries := bankFixture(21, 1)
	q := queries[0]
	twin := proteinSeq("twin", append([]byte(nil), q.Residues...))
	bank, err := NewQueryBank(DefaultProteinOptions())
	if err != nil {
		t.Fatal(err)
	}
	twins := []*seq.Sequence{twin}
	pq, _ := bank.get([]*seq.Sequence{q})
	pt, _ := bank.get(twins)
	if pq == nil || pq != pt {
		t.Fatalf("equal residues got separate indexes (%p, %p)", pq, pt)
	}
	if st := bank.Stats(); st.Builds != 1 || st.Reuses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 build, 1 reuse, 1 entry", st)
	}
	for _, x := range []*seq.Sequence{q, twin} {
		_, want := searchAlone(t, DefaultProteinOptions(), x, frag)
		wantText := fmt.Sprintf("%s %+v\n", x.ID, want.Work) + renderAll(t, bank.Searcher(), x, frag, want)
		if got := searchVia(t, bank, x, frag); got != wantText {
			t.Errorf("%s: search through the bank differs from SetQuery", x.ID)
		}
	}
	// A hit costs no allocation: the bank sits inside the engines'
	// allocation-free (fragment, query) loop.
	if n := testing.AllocsPerRun(100, func() { bank.get(twins) }); n != 0 {
		t.Errorf("bank hit allocates %v times", n)
	}
	dna := &seq.Sequence{ID: "d", Residues: q.Residues, Alpha: seq.DNAAlphabet}
	if _, err := bank.get([]*seq.Sequence{dna}); err == nil {
		t.Error("bank served a protein index to a DNA sequence with the same residue codes")
	}
}

// TestQueryBankConcurrent is the -race hammer: many goroutines search the
// same and different queries through one bank with four kernel slots at
// once. Every query is built exactly once and every search matches the
// single-goroutine reference. Then as many goroutines search one whole batch,
// a twin included, at the same moment: they build it together, each distinct
// query enumerated exactly once.
func TestQueryBankConcurrent(t *testing.T) {
	const goroutines, rounds = 8, 3
	frag, queries := bankFixture(22, 5)
	opts := DefaultProteinOptions()
	opts.SearchThreads = 4
	ref, err := NewQueryBank(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = searchVia(t, ref, q, frag)
	}

	bank, err := NewQueryBank(opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for k := range queries {
					// Even goroutines walk the queries in step (same
					// entry at once), odd ones start elsewhere.
					i := (k + g%2*g) % len(queries)
					// A private copy, as every rank decodes its own.
					q := proteinSeq(queries[i].ID, append([]byte(nil), queries[i].Residues...))
					if got := searchVia(t, bank, q, frag); got != want[i] {
						t.Errorf("goroutine %d: %s differs from the reference", g, q.ID)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := bank.Stats()
	lookups := int64(goroutines * rounds * len(queries))
	if st.Builds != int64(len(queries)) || st.Reuses != lookups-st.Builds {
		t.Fatalf("stats %+v, want %d builds and %d reuses", st, len(queries), lookups-int64(len(queries)))
	}

	twin := proteinSeq("twin", queries[2].Residues)
	batch := append(append([]*seq.Sequence(nil), queries...), twin)
	want = append(want, searchVia(t, ref, twin, frag))
	spaces := make([]stats.SearchSpace, len(batch))
	for i, q := range batch {
		spaces[i] = spaceFor(ref.Searcher(), q.Len(), frag)
	}
	bank, err = NewQueryBank(opts)
	if err != nil {
		t.Fatal(err)
	}
	var start sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := make([]*seq.Sequence, len(batch))
			for i, q := range batch {
				mine[i] = proteinSeq(q.ID, append([]byte(nil), q.Residues...))
			}
			start.Wait()
			results, err := bank.Search(nil, mine, frag, spaces)
			if err != nil {
				t.Error(err)
				return
			}
			for i, res := range results {
				if render(t, bank.Searcher(), mine[i], frag, res) != want[i] {
					t.Errorf("batch search of %s differs from the reference", mine[i].ID)
				}
			}
		}()
	}
	start.Done()
	wg.Wait()
	e := bank.entries[string(batchKey(nil, batch))]
	if n := e.done.Load(); n != int64(len(queries)) {
		t.Errorf("%d enumerations for %d distinct queries", n, len(queries))
	}
	lookups = int64(goroutines * len(batch))
	if st := bank.Stats(); st.Builds != int64(len(queries)) || st.Reuses != lookups-st.Builds || st.Entries != len(queries) {
		t.Fatalf("batch stats %+v, want %d builds and entries, %d reuses", st, len(queries), lookups-int64(len(queries)))
	}
}

// TestIndexBuildAllocatesItsIndex: on BenchmarkBuildIndexProtein's shape,
// building a query's index allocates at most 1.15 times what the build ends
// with — each registration written once into a buffer of its final size (8
// bytes), the CSR entries (4 bytes each) and row offsets — not the doubling
// growth of an append and a copy per query on top.
func TestIndexBuildAllocatesItsIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	query := &seq.Sequence{ID: "bench-query", Residues: randomProtein(rng, 300), Alpha: seq.AlphabetFor(seq.Protein)}
	s, err := NewSearcher(DefaultProteinOptions())
	if err != nil {
		t.Fatal(err)
	}
	var p *PreparedBatch
	allocated := wiretest.Allocated(func() {
		if p, err = s.prepareBatch([]*seq.Sequence{query}); err != nil {
			t.Fatal(err)
		}
	})
	n := p.work[0].IndexWords
	final := 8*n + 4*n + 4*int64(len(p.groups[0].offsets))
	t.Logf("%d registrations: %d B allocated, %d B kept", n, allocated, final)
	if n == 0 || float64(allocated) > 1.15*float64(final) {
		t.Errorf("building %d registrations allocated %d B, over 1.15 × the %d B of its registrations, entries and offsets", n, allocated, final)
	}
}

// TestQueryBankRecyclesBuildScratch: a bank's next build reuses what its
// earlier builds dropped — every enumeration buffer, and a released entry's
// CSR arrays when no search is in flight — and builds the same rows as a
// fresh Prepare. An index released while a Search of it is in flight keeps
// its arrays: the search, held past its lookup waiting for the one slot,
// still returns the result of an intact index.
func TestQueryBankRecyclesBuildScratch(t *testing.T) {
	frag, queries := bankFixture(31, 3)
	bank := newBank(t, DefaultProteinOptions(), 1)
	same := func(p *PreparedBatch, q *seq.Sequence) bool {
		fresh, err := bank.Searcher().prepareBatch([]*seq.Sequence{q})
		if err != nil {
			t.Fatal(err)
		}
		return slices.Equal(p.groups[0].offsets, fresh.groups[0].offsets) && slices.Equal(p.groups[0].entries, fresh.groups[0].entries)
	}
	one := queries[2:]
	fresh := wiretest.Allocated(func() {
		if _, err := bank.Searcher().prepareBatch([]*seq.Sequence{one[0]}); err != nil {
			t.Fatal(err)
		}
	})
	if _, err := bank.get(one); err != nil {
		t.Fatal(err)
	}
	bank.Release(one) // no search in flight: the arrays go to the next build
	var p *PreparedBatch
	rebuilt := wiretest.Allocated(func() {
		p, _ = bank.get(one)
		bank.Release(one)
	})
	if rebuilt*4 > fresh {
		t.Errorf("a rebuild after release allocated %d B, a fresh build %d B: want under a quarter", rebuilt, fresh)
	}
	if p, _ = bank.get(one); !same(p, one[0]) {
		t.Fatal("an index built from recycled arrays differs from a fresh one")
	}
	bank.Release(one)

	// Released while a Search is in flight: the test holds the bank's one
	// slot, so the search has its index and waits in the executor while the
	// entry is released and later builds draw on the spares.
	_, alone := searchAlone(t, DefaultProteinOptions(), one[0], frag)
	want := render(t, bank.Searcher(), one[0], frag, alone)
	bank.mu.Lock()
	slot := bank.takeSlot()
	bank.mu.Unlock()
	got := make(chan string)
	go func() { got <- searchVia(t, bank, one[0], frag) }()
	for bank.Stats().Searches == 0 {
		time.Sleep(time.Millisecond)
	}
	bank.Release(one)
	for _, q := range queries[:2] {
		if _, err := bank.get([]*seq.Sequence{q}); err != nil {
			t.Fatal(err)
		}
		bank.Release([]*seq.Sequence{q})
	}
	bank.mu.Lock()
	bank.putSlot(slot)
	bank.mu.Unlock()
	if <-got != want {
		t.Error("a search whose index was released while it was in flight differs from a standalone search")
	}
}

// TestQueryBankRelease: released entries leave the bank, a later request
// rebuilds, and once a search returns nothing of its query stays reachable
// through the executor — no idle slot and no kept request holds it.
func TestQueryBankRelease(t *testing.T) {
	frag, queries := bankFixture(23, 2)
	bank := newBank(t, DefaultProteinOptions(), 4)
	first := searchVia(t, bank, queries[0], frag)
	released, _ := bank.get(queries[:1])
	bank.Release(queries[:1])
	if st := bank.Stats(); st.Entries != 0 || st.PeakEntries != 1 {
		t.Fatalf("after release: %+v, want 0 entries, peak 1", st)
	}

	if _, err := bank.get(queries[1:]); err != nil {
		t.Fatal(err)
	}
	searchVia(t, bank, queries[1], frag)
	bank.mu.Lock()
	if len(bank.free) == 0 || int64(len(bank.free)) != bank.stats.Contexts {
		t.Errorf("%d of %d slots idle after the searches returned", len(bank.free), bank.stats.Contexts)
	}
	for i, sl := range bank.free {
		if sl.prep != nil || len(sl.queries) != 0 {
			t.Errorf("idle slot %d still pins a query", i)
		}
		for _, sc := range sl.scans {
			if sc.query != nil || sc.subj != nil {
				t.Errorf("idle slot %d's scans still point at a query or subject", i)
			}
		}
	}
	for i, r := range bank.done {
		if r.prep != nil || r.queries != nil || r.frag != nil || slices.ContainsFunc(r.slots, func(h *SubjectResult) bool { return h != nil }) {
			t.Errorf("kept request %d still pins a query, fragment or result", i)
		}
	}
	bank.mu.Unlock()

	if again := searchVia(t, bank, queries[0], frag); again != first {
		t.Error("search after release and rebuild differs")
	}
	if p, _ := bank.get(queries[:1]); p == released {
		t.Error("released entry was served again")
	}
	if st := bank.Stats(); st.Builds != 3 || st.Entries != 2 || st.PeakEntries != 2 {
		t.Fatalf("after rebuild: %+v, want 3 builds, 2 entries, peak 2", st)
	}
}

// TestQueryBankLendsScratch: the executor makes a kernel slot only when every
// one it has is busy — one slot serves every search when SearchThreads is 1
// — and slots idle between searches hold no query; searches from many
// goroutines at once are safe, and however many ask, no more than W slots
// are ever made.
func TestQueryBankLendsScratch(t *testing.T) {
	const procs, searchers = 4, 16
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	frag, queries := bankFixture(29, 2)
	one := newBank(t, DefaultProteinOptions(), 1)
	first := searchVia(t, one, queries[0], frag)
	for i := 0; i < 3; i++ {
		if searchVia(t, one, queries[i%2], frag) == "" {
			t.Fatal("search failed")
		}
	}
	if st := one.Stats(); st.Contexts != 1 || st.Searches != 4 {
		t.Fatalf("stats %+v, want 1 slot made over 4 searches", st)
	}

	bank := newBank(t, DefaultProteinOptions(), 0) // W = GOMAXPROCS
	if searchVia(t, bank, queries[0], frag) != first {
		t.Error("a search with GOMAXPROCS slots differs from one with one slot")
	}
	bank.mu.Lock()
	if int64(len(bank.free)) != bank.stats.Contexts {
		t.Errorf("%d of %d slots idle after the search returned", len(bank.free), bank.stats.Contexts)
	}
	bank.mu.Unlock()
	var wg sync.WaitGroup
	for g := 0; g < searchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if got := searchVia(t, bank, queries[g%2], frag); g%2 == 0 && got != first {
					t.Error("a concurrent search differs")
				}
			}
		}(g)
	}
	wg.Wait()
	searches := int64(1 + searchers*10)
	if st := bank.Stats(); st.Contexts > procs || st.Searches != searches {
		t.Fatalf("stats %+v, want at most %d slots over %d searches", st, procs, searches)
	}
}

// TestTakeSpareSmallestFit: a build reuses the smallest spare buffer with
// room for it and leaves the others spare.
func TestTakeSpareSmallestFit(t *testing.T) {
	spare := [][]int{make([]int, 0, 4), make([]int, 0, 8)}
	if got := takeSpare(&spare, 3); cap(got) != 4 || len(spare) != 1 || cap(spare[0]) != 8 {
		t.Fatalf("took a buffer of cap %d, left %d spares", cap(got), len(spare))
	}
}
