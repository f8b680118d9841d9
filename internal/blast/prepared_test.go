package blast

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"parblast/internal/seq"
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

// searchVia loads q from the bank into ctx and renders the search's output.
func searchVia(t *testing.T, bank *QueryBank, ctx *Context, q *seq.Sequence, frag *Fragment) string {
	t.Helper()
	p, err := bank.Get(q)
	if err != nil {
		t.Error(err)
		return ""
	}
	if err := ctx.UsePrepared(q, p); err != nil {
		t.Error(err)
		return ""
	}
	res, err := ctx.SearchFragment(frag, spaceFor(bank.Searcher(), q.Len(), frag))
	if err != nil {
		t.Error(err)
		return ""
	}
	return fmt.Sprintf("%s %+v\n", res.QueryID, res.Work) + renderAll(t, bank.Searcher(), q, frag, res)
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
	pq, _ := bank.Get(q)
	pt, _ := bank.Get(twin)
	if pq == nil || pq != pt {
		t.Fatalf("equal residues got separate indexes (%p, %p)", pq, pt)
	}
	if st := bank.Stats(); st.Builds != 1 || st.Reuses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 build, 1 reuse, 1 entry", st)
	}
	ctx := bank.Searcher().NewContext()
	for _, x := range []*seq.Sequence{q, twin} {
		_, want := searchWithThreads(t, DefaultProteinOptions(), x, frag, 1)
		wantText := fmt.Sprintf("%s %+v\n", x.ID, want.Work) + renderAll(t, bank.Searcher(), x, frag, want)
		if got := searchVia(t, bank, ctx, x, frag); got != wantText {
			t.Errorf("%s: search through the bank differs from SetQuery", x.ID)
		}
	}
	// A hit costs no allocation: the bank sits inside the engines'
	// allocation-free (fragment, query) loop.
	if n := testing.AllocsPerRun(100, func() { bank.Get(twin) }); n != 0 {
		t.Errorf("bank hit allocates %v times", n)
	}
	dna := &seq.Sequence{ID: "d", Residues: q.Residues, Alpha: seq.DNAAlphabet}
	if _, err := bank.Get(dna); err == nil {
		t.Error("bank served a protein index to a DNA sequence with the same residue codes")
	}
}

// TestQueryBankConcurrent is the -race hammer: many goroutines, each with
// its own context and SearchThreads clone pool, request the same and
// different queries from one bank at once. Every query is built exactly once
// and every search matches the single-goroutine reference.
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
		want[i] = searchVia(t, ref, ref.Searcher().NewContext(), q, frag)
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
			ctx := bank.Searcher().NewContext()
			for round := 0; round < rounds; round++ {
				for k := range queries {
					// Even goroutines walk the queries in step (same
					// entry at once), odd ones start elsewhere.
					i := (k + g%2*g) % len(queries)
					// A private copy, as every rank decodes its own.
					q := proteinSeq(queries[i].ID, append([]byte(nil), queries[i].Residues...))
					if got := searchVia(t, bank, ctx, q, frag); got != want[i] {
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
}

// TestQueryBankRelease: released entries leave the bank, a later request
// rebuilds, and once the context moves on nothing of the released query
// stays reachable through it — the clone pool included.
func TestQueryBankRelease(t *testing.T) {
	frag, queries := bankFixture(23, 2)
	opts := DefaultProteinOptions()
	opts.SearchThreads = 4
	bank, err := NewQueryBank(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := bank.Searcher().NewContext()
	first := searchVia(t, bank, ctx, queries[0], frag)
	if len(ctx.pool.workers) < 2 {
		t.Fatal("fixture did not engage the clone pool")
	}
	released, _ := bank.Get(queries[0])
	bank.Release(queries[:1])
	if st := bank.Stats(); st.Entries != 0 || st.PeakEntries != 1 {
		t.Fatalf("after release: %+v, want 0 entries, peak 1", st)
	}

	if _, err := bank.Get(queries[1]); err != nil {
		t.Fatal(err)
	}
	p1, _ := bank.Get(queries[1])
	if err := ctx.UsePrepared(queries[1], p1); err != nil {
		t.Fatal(err)
	}
	for i, cl := range ctx.pool.workers[1:] {
		if cl.prep == released || cl.query == queries[0] {
			t.Errorf("clone %d still pins the released query", i)
		}
	}

	if again := searchVia(t, bank, ctx, queries[0], frag); again != first {
		t.Error("search after release and rebuild differs")
	}
	if p, _ := bank.Get(queries[0]); p == released {
		t.Error("released entry was served again")
	}
	if st := bank.Stats(); st.Builds != 3 || st.Entries != 2 || st.PeakEntries != 2 {
		t.Fatalf("after rebuild: %+v, want 3 builds, 2 entries, peak 2", st)
	}
}

// TestQueryBankLendsScratch: the bank creates a scratch context only when
// every one it has is out, takes a context back unloaded — clones included,
// so an idle one pins no query — and lends that same context next; loans from
// many goroutines at once are safe, and however many borrowers ask, no more
// than GOMAXPROCS contexts are ever out or created.
func TestQueryBankLendsScratch(t *testing.T) {
	const procs, lenders = 4, 16
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	frag, queries := bankFixture(29, 2)
	opts := DefaultProteinOptions()
	opts.SearchThreads = 4
	bank, err := NewQueryBank(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := bank.Lend()
	first := searchVia(t, bank, ctx, queries[0], frag)
	if len(ctx.pool.workers) < 2 {
		t.Fatal("fixture did not engage the clone pool")
	}
	bank.TakeBack(ctx)
	for i, cl := range ctx.pool.workers {
		if cl.query != nil || cl.prep != nil {
			t.Errorf("worker %d of a context taken back still holds a query", i)
		}
	}
	again := bank.Lend()
	if again != ctx {
		t.Fatal("an idle context existed and a new one was created")
	}
	if searchVia(t, bank, again, queries[0], frag) != first {
		t.Error("a search in a re-lent context differs")
	}
	second := bank.Lend() // the first is still out
	if second == again {
		t.Fatal("one context lent twice at once")
	}
	bank.TakeBack(again)
	bank.TakeBack(second)
	if st := bank.Stats(); st.Contexts != 2 || st.Lends != 3 {
		t.Fatalf("stats %+v, want 2 contexts created over 3 loans", st)
	}

	var wg sync.WaitGroup
	var out, peak atomic.Int64
	for g := 0; g < lenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				c := bank.Lend()
				n := out.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				if got := searchVia(t, bank, c, queries[g%2], frag); g%2 == 0 && got != first {
					t.Error("a concurrent borrower's search differs")
				}
				out.Add(-1)
				bank.TakeBack(c)
			}
		}(g)
	}
	wg.Wait()
	loans := int64(3 + lenders*10)
	if st := bank.Stats(); st.Contexts > procs || st.Lends != loans {
		t.Fatalf("stats %+v, want at most %d contexts over %d loans", st, procs, loans)
	}
	if p := peak.Load(); p > procs {
		t.Fatalf("%d contexts out at once, want at most GOMAXPROCS = %d", p, procs)
	}
}
