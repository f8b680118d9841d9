package blast

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"parblast/internal/seq"
	"parblast/internal/stats"
)

// renderAll produces the full rendered output of a result: every hit's
// report block, in order. Byte-level comparison of this string is the
// determinism contract the parallel engines rely on.
func renderAll(t *testing.T, s *Searcher, query *seq.Sequence, frag *Fragment, res *QueryResult) string {
	t.Helper()
	var b strings.Builder
	byOID := make(map[int][]byte)
	for i := range frag.Subjects {
		byOID[frag.Subjects[i].OID] = frag.Subjects[i].Residues
	}
	for _, hit := range res.Hits {
		b.WriteString(RenderHit(s.Options().OutFormat, query, byOID[hit.OID], hit, s.Options().Matrix))
	}
	return b.String()
}

// searchAlone searches query on a standalone context: on the caller's
// goroutine, one subject after another — the sequential reference.
func searchAlone(t *testing.T, opts Options, query *seq.Sequence, frag *Fragment) (*Searcher, *QueryResult) {
	t.Helper()
	s, err := NewSearcher(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := s.NewContext()
	if err := ctx.SetQuery(query); err != nil {
		t.Fatal(err)
	}
	res, err := ctx.SearchFragment(frag, spaceFor(s, query.Len(), frag))
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}

// searchBank searches query through bank's kernel executor.
func searchBank(t *testing.T, bank *QueryBank, query *seq.Sequence, frag *Fragment) *QueryResult {
	t.Helper()
	res, err := bank.Search(nil, []*seq.Sequence{query}, frag, []stats.SearchSpace{spaceFor(bank.Searcher(), query.Len(), frag)})
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

// newBank is a query bank of opts with threads kernel slots.
func newBank(t *testing.T, opts Options, threads int) *QueryBank {
	t.Helper()
	opts.SearchThreads = threads
	bank, err := NewQueryBank(opts)
	if err != nil {
		t.Fatal(err)
	}
	return bank
}

// threadRows is the golden-equivalence contract's table, one row per
// fixture, each named after its test: the job's kernel executor must not
// change a single output byte or work counter at any of the row's slot
// counts.
var threadRows = []struct {
	name    string
	threads []int
	fixture func() (Options, *seq.Sequence, *Fragment)
}{
	{"TestSearchThreadsByteIdenticalProtein", []int{2, 3, 8}, func() (Options, *seq.Sequence, *Fragment) {
		rng := rand.New(rand.NewSource(77))
		frag := testFragment(rng, 48, 350)
		query := proteinSeq("tq", randomProtein(rng, 200))
		// Plant homologs so the comparison covers real alignments, not
		// just empty reports.
		for _, oid := range []int{2, 11, 30} {
			hom := mutate(rng, query.Residues, 0.2)
			if len(hom) > 340 {
				hom = hom[:340]
			}
			copy(frag.Subjects[oid].Residues[4:], hom)
		}
		return DefaultProteinOptions(), query, frag
	}},
	{"TestSearchThreadsByteIdenticalDNA", []int{8}, func() (Options, *seq.Sequence, *Fragment) {
		rng := rand.New(rand.NewSource(78))
		randDNA := func(n int) []byte {
			out := make([]byte, n)
			for i := range out {
				out[i] = byte(rng.Intn(4))
			}
			return out
		}
		frag := &Fragment{}
		for i := 0; i < 24; i++ {
			frag.Subjects = append(frag.Subjects, Subject{OID: i, ID: "d" + itoa(i), Residues: randDNA(1500)})
		}
		query := &seq.Sequence{ID: "dq", Residues: randDNA(260), Alpha: seq.DNAAlphabet}
		copy(frag.Subjects[7].Residues[300:], query.Residues)
		copy(frag.Subjects[19].Residues[900:], query.Residues[:200])
		return DefaultDNAOptions(), query, frag
	}},
}

// searchThreadsByteIdentical runs the row named after t's test.
func searchThreadsByteIdentical(t *testing.T) {
	for _, row := range threadRows {
		if row.name != t.Name() {
			continue
		}
		opts, query, frag := row.fixture()
		s1, r1 := searchAlone(t, opts, query, frag)
		out1 := renderAll(t, s1, query, frag, r1)
		if len(r1.Hits) == 0 {
			t.Fatal("fixture produced no hits; equivalence test is vacuous")
		}
		for _, threads := range append([]int{1}, row.threads...) {
			bank := newBank(t, opts, threads)
			rN := searchBank(t, bank, query, frag)
			if outN := renderAll(t, bank.Searcher(), query, frag, rN); out1 != outN {
				t.Fatalf("threads=%d output differs from sequential (%d vs %d bytes)", threads, len(out1), len(outN))
			}
			if r1.Work != rN.Work {
				t.Fatalf("threads=%d work counters differ:\nseq: %+v\npar: %+v", threads, r1.Work, rN.Work)
			}
		}
		return
	}
	t.Fatal("no row is named after this test")
}

func TestSearchThreadsByteIdenticalProtein(t *testing.T) { searchThreadsByteIdentical(t) }
func TestSearchThreadsByteIdenticalDNA(t *testing.T)     { searchThreadsByteIdentical(t) }

// TestSearchThreadsPoolReuse runs many fragments and queries through one
// bank with four kernel slots, exercising slot and request reuse and (under
// -race) the executor's memory accesses.
func TestSearchThreadsPoolReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	bank := newBank(t, DefaultProteinOptions(), 4)
	for round := 0; round < 6; round++ {
		frag := testFragment(rng, 20, 200)
		query := proteinSeq("q"+itoa(round), randomProtein(rng, 150))
		copy(frag.Subjects[round*3%20].Residues[2:], query.Residues[:150])
		res := searchBank(t, bank, query, frag)
		if len(res.Hits) == 0 {
			t.Fatalf("round %d: planted identity not found", round)
		}
		for _, hit := range res.Hits {
			for _, h := range hit.HSPs {
				if err := h.Validate(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
		}
	}
	if st := bank.Stats(); st.Contexts > 4 || st.Searches != 6 {
		t.Fatalf("stats %+v, want at most 4 slots over 6 searches", st)
	}
}

// skewedFixture is a fragment whose hit-rich subjects all have even index —
// what a synthesized database's fixed family stride does to a fragment — so
// any split of the subjects by index gives one side all the extension work.
func skewedFixture(seed int64) (*Fragment, *seq.Sequence) {
	rng := rand.New(rand.NewSource(seed))
	frag := testFragment(rng, 48, 300)
	query := proteinSeq("skew", randomProtein(rng, 220))
	for oid := 0; oid < len(frag.Subjects); oid += 4 {
		hom := mutate(rng, query.Residues, 0.1+0.02*float64(oid%5))
		copy(frag.Subjects[oid].Residues[3:], hom[:min(len(hom), 290)])
	}
	return frag, query
}

// TestSearchPoolClaimOrderInvisible: whichever slot claims whichever
// subject, a lone search through the executor gives the sequential result —
// hits, their order and every work counter — and the helpers are gone when
// the search returns. Nothing here looks at balance or timing: who claimed
// what is host scheduling and must never reach a metric, span, report or
// golden.
func TestSearchPoolClaimOrderInvisible(t *testing.T) {
	frag, query := skewedFixture(80)
	opts := DefaultProteinOptions()
	_, want := searchAlone(t, opts, query, frag)
	if len(want.Hits) < 8 || want.Work.GappedExtensions == 0 {
		t.Fatalf("fixture is not hit-rich: %d hits, work %+v", len(want.Hits), want.Work)
	}
	for _, hit := range want.Hits[:8] {
		if hit.OID%2 != 0 {
			t.Fatalf("fixture: top hit at odd subject %d", hit.OID)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, threads := range []int{1, 2, 3, 4, 7} {
			bank := newBank(t, opts, threads)
			// Several searches on one bank: slots and requests are reused.
			for call := 0; call < 3; call++ {
				before := runtime.NumGoroutine()
				got := searchBank(t, bank, query, frag)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("GOMAXPROCS %d, SearchThreads %d, call %d: result differs from the sequential one\n got work %+v\nwant work %+v",
						procs, threads, call, got.Work, want.Work)
				}
				waitGoroutines(t, before, fmt.Sprintf("GOMAXPROCS %d, SearchThreads %d", procs, threads))
			}
		}
	}
}

// waitGoroutines fails unless the goroutine count is back at before. A
// helper's unlock is its last act, not its exit: give the runtime a moment
// to retire the stragglers.
func waitGoroutines(t *testing.T, before int, what string) {
	t.Helper()
	after := runtime.NumGoroutine()
	for i := 0; i < 200 && after > before; i++ {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Fatalf("%s: %d goroutines before, %d after", what, before, after)
	}
}

// TestExecutorConcurrentSearches is the executor's determinism contract under
// concurrency: several goroutines, as ranks searching aside do, put requests
// to one bank at once — some the same query, some different ones, one batch
// among them — at GOMAXPROCS 1, 2 and 4 with 1 to 7 slots. Every result
// deep-equals the one-query sequential search, the bank makes at most W
// slots, and no helper outlives the searches.
func TestExecutorConcurrentSearches(t *testing.T) {
	const goroutines, rounds = 4, 2
	frag, queries := bankFixture(81, 3)
	opts := DefaultProteinOptions()
	want := make([]*QueryResult, len(queries))
	spaces := make([]stats.SearchSpace, len(queries))
	for i, q := range queries {
		var s *Searcher
		s, want[i] = searchAlone(t, opts, q, frag)
		spaces[i] = spaceFor(s, q.Len(), frag)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for threads := 1; threads <= 7; threads++ {
			what := fmt.Sprintf("GOMAXPROCS %d, SearchThreads %d", procs, threads)
			before := runtime.NumGoroutine()
			bank := newBank(t, opts, threads)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for round := 0; round < rounds; round++ {
						if g == goroutines-1 {
							got, err := bank.Search(nil, queries, frag, spaces)
							if err != nil || !reflect.DeepEqual(got, want) {
								t.Errorf("%s: a batch search differs from the sequential ones (%v)", what, err)
							}
							continue
						}
						i := (g + round) % len(queries)
						got, err := bank.Search(nil, queries[i:i+1], frag, spaces[i:i+1])
						if err != nil || !reflect.DeepEqual(got[0], want[i]) {
							t.Errorf("%s: goroutine %d, %s differs from the sequential search (%v)", what, g, queries[i].ID, err)
						}
					}
				}(g)
			}
			wg.Wait()
			if st := bank.Stats(); st.Contexts > int64(threads) || st.Searches != goroutines*rounds {
				t.Fatalf("%s: stats %+v, want at most %d slots over %d searches", what, st, threads, goroutines*rounds)
			}
			waitGoroutines(t, before, what)
		}
	}
}
