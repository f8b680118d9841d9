package blast

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"parblast/internal/seq"
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

func searchWithThreads(t *testing.T, opts Options, query *seq.Sequence, frag *Fragment, threads int) (*Searcher, *QueryResult) {
	t.Helper()
	opts.SearchThreads = threads
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

// TestSearchThreadsByteIdenticalProtein is the golden-equivalence contract:
// the intra-rank pool must not change a single output byte.
func TestSearchThreadsByteIdenticalProtein(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	frag := testFragment(rng, 48, 350)
	query := proteinSeq("tq", randomProtein(rng, 200))
	// Plant homologs so the comparison covers real alignments, not just
	// empty reports.
	for _, oid := range []int{2, 11, 30} {
		hom := mutate(rng, query.Residues, 0.2)
		if len(hom) > 340 {
			hom = hom[:340]
		}
		copy(frag.Subjects[oid].Residues[4:], hom)
	}
	opts := DefaultProteinOptions()

	s1, r1 := searchWithThreads(t, opts, query, frag, 1)
	out1 := renderAll(t, s1, query, frag, r1)
	for _, threads := range []int{2, 3, 8} {
		s8, r8 := searchWithThreads(t, opts, query, frag, threads)
		out8 := renderAll(t, s8, query, frag, r8)
		if out1 != out8 {
			t.Fatalf("threads=%d output differs from sequential (%d vs %d bytes)", threads, len(out1), len(out8))
		}
		if r1.Work != r8.Work {
			t.Fatalf("threads=%d work counters differ:\nseq: %+v\npar: %+v", threads, r1.Work, r8.Work)
		}
	}
	if len(r1.Hits) == 0 {
		t.Fatal("fixture produced no hits; equivalence test is vacuous")
	}
}

func TestSearchThreadsByteIdenticalDNA(t *testing.T) {
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
	opts := DefaultDNAOptions()

	s1, r1 := searchWithThreads(t, opts, query, frag, 1)
	out1 := renderAll(t, s1, query, frag, r1)
	s8, r8 := searchWithThreads(t, opts, query, frag, 8)
	out8 := renderAll(t, s8, query, frag, r8)
	if out1 != out8 {
		t.Fatalf("DNA output differs: %d vs %d bytes", len(out1), len(out8))
	}
	if r1.Work != r8.Work {
		t.Fatalf("DNA work counters differ:\nseq: %+v\npar: %+v", r1.Work, r8.Work)
	}
	if len(r1.Hits) == 0 {
		t.Fatal("fixture produced no hits; equivalence test is vacuous")
	}
}

// TestSearchThreadsPoolReuse runs many fragments through one context with
// the pool on, exercising clone reuse and (under -race) the pool's memory
// accesses.
func TestSearchThreadsPoolReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	opts := DefaultProteinOptions()
	opts.SearchThreads = 4
	s, err := NewSearcher(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := s.NewContext()
	for round := 0; round < 6; round++ {
		frag := testFragment(rng, 20, 200)
		query := proteinSeq("q"+itoa(round), randomProtein(rng, 150))
		copy(frag.Subjects[round*3%20].Residues[2:], query.Residues[:150])
		if err := ctx.SetQuery(query); err != nil {
			t.Fatal(err)
		}
		res, err := ctx.SearchFragment(frag, spaceFor(s, query.Len(), frag))
		if err != nil {
			t.Fatal(err)
		}
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

// TestSearchPoolClaimOrderInvisible: whichever worker claims whichever
// subject, the result is the sequential one — hits, their order and every
// work counter — and the pool's goroutines are gone when the call returns.
// Nothing here looks at balance or timing: who claimed what is host
// scheduling and must never reach a metric, span, report or golden.
func TestSearchPoolClaimOrderInvisible(t *testing.T) {
	frag, query := skewedFixture(80)
	opts := DefaultProteinOptions()
	_, want := searchWithThreads(t, opts, query, frag, 1)
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
			opts.SearchThreads = threads
			s, err := NewSearcher(opts)
			if err != nil {
				t.Fatal(err)
			}
			ctx := s.NewContext()
			if err := ctx.SetQuery(query); err != nil {
				t.Fatal(err)
			}
			// Several calls on one context: the pool state is reused.
			for call := 0; call < 3; call++ {
				before := runtime.NumGoroutine()
				got, err := ctx.SearchFragment(frag, spaceFor(s, query.Len(), frag))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("GOMAXPROCS %d, SearchThreads %d, call %d: result differs from the sequential one\n got work %+v\nwant work %+v",
						procs, threads, call, got.Work, want.Work)
				}
				// wg.Done is a goroutine's last act, not its exit: give the
				// runtime a moment to retire the stragglers.
				after := runtime.NumGoroutine()
				for i := 0; i < 200 && after > before; i++ {
					time.Sleep(time.Millisecond)
					after = runtime.NumGoroutine()
				}
				if after > before {
					t.Fatalf("GOMAXPROCS %d, SearchThreads %d: %d goroutines before the call, %d after", procs, threads, before, after)
				}
			}
		}
	}
}
