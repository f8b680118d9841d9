package blast

import (
	"math/rand"
	"testing"

	"parblast/internal/matrix"
	"parblast/internal/seq"
	"parblast/internal/stats"
)

// benchFixture builds a mid-sized fragment with planted homologs.
func benchFixture(nSubj, subjLen int) (*Fragment, *seq.Sequence) {
	rng := rand.New(rand.NewSource(42))
	frag := &Fragment{}
	for i := 0; i < nSubj; i++ {
		frag.Subjects = append(frag.Subjects, Subject{
			OID: i, ID: "s" + itoa(i), Residues: randomProtein(rng, subjLen),
		})
	}
	query := proteinSeq("bench-query", randomProtein(rng, 300))
	for _, oid := range []int{3, 17, 41} {
		if oid < nSubj {
			hom := mutate(rng, query.Residues, 0.15)
			if len(hom) > subjLen-10 {
				hom = hom[:subjLen-10]
			}
			copy(frag.Subjects[oid].Residues[5:], hom)
		}
	}
	return frag, query
}

func benchSearchFragment(b *testing.B, frag *Fragment, query *seq.Sequence, threads int) {
	opts := DefaultProteinOptions()
	opts.SearchThreads = threads
	s, err := NewSearcher(opts)
	if err != nil {
		b.Fatal(err)
	}
	ctx := s.NewContext()
	if err := ctx.SetQuery(query); err != nil {
		b.Fatal(err)
	}
	space := stats.NewSearchSpace(s.GappedParams(), query.Len(), frag.TotalResidues(), len(frag.Subjects))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ctx.SearchFragment(frag, space)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Hits) == 0 {
			b.Fatal("no hits")
		}
	}
	b.ReportMetric(float64(frag.TotalResidues()), "residues")
}

func BenchmarkSearchFragment(b *testing.B) {
	frag, query := benchFixture(64, 400)
	benchSearchFragment(b, frag, query, 1)
}

func BenchmarkSearchFragment4Threads(b *testing.B) {
	frag, query := benchFixture(64, 400)
	benchSearchFragment(b, frag, query, 4)
}

// BenchmarkSearchFragmentSkewed searches the fixture whose hit-rich subjects
// all have even index with one worker and with two: a pool that splits the
// subjects by index gains nothing there, one that hands them out as workers
// come free does (given two cores).
func BenchmarkSearchFragmentSkewed(b *testing.B) {
	frag, query := skewedFixture(80)
	for _, threads := range []int{1, 2} {
		b.Run("threads="+itoa(threads), func(b *testing.B) { benchSearchFragment(b, frag, query, threads) })
	}
}

// BenchmarkSearchQueries is the shape SearchLoop.searchAll runs: one context
// searches a batch of 18 queries against one 64 × 400 fragment, so the
// fragment's word ids are encoded once per batch and read by every query.
func BenchmarkSearchQueries(b *testing.B) {
	frag, _ := benchFixture(64, 400)
	rng := rand.New(rand.NewSource(43))
	opts := DefaultProteinOptions()
	opts.SearchThreads = 1
	s, err := NewSearcher(opts)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]*seq.Sequence, 18)
	prepared := make([]*PreparedQuery, len(queries))
	for i := range queries {
		queries[i] = proteinSeq("q"+itoa(i), randomProtein(rng, 250+rng.Intn(100)))
		hom := mutate(rng, queries[i].Residues, 0.2)
		copy(frag.Subjects[3*i].Residues[5:], hom[:min(len(hom), 390)])
		if prepared[i], err = s.Prepare(queries[i]); err != nil {
			b.Fatal(err)
		}
	}
	residues := int64(len(queries)) * frag.TotalResidues()
	ctx := s.NewContext()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for qi, q := range queries {
			if err := ctx.UsePrepared(q, prepared[qi]); err != nil {
				b.Fatal(err)
			}
			if _, err := ctx.SearchFragment(frag, spaceFor(s, q.Len(), frag)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(residues), "ns/residue")
}

// BenchmarkScanSubject times the seed scan alone: with a two-hit window
// shorter than a word no pair of hits ever qualifies, so nothing is extended
// and the cost is the lookup probe per position and the per-hit two-hit
// bookkeeping (the word ids are encoded once, on the first call).
func BenchmarkScanSubject(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	frag := testFragment(rng, 32, 400)
	query := proteinSeq("scan-query", randomProtein(rng, 300))
	opts := DefaultProteinOptions()
	opts.TwoHitWindow = opts.WordSize - 1
	opts.SearchThreads = 1
	s, err := NewSearcher(opts)
	if err != nil {
		b.Fatal(err)
	}
	ctx := s.NewContext()
	if err := ctx.SetQuery(query); err != nil {
		b.Fatal(err)
	}
	space := spaceFor(s, query.Len(), frag)
	var work WorkCounters
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ctx.SearchFragment(frag, space)
		if err != nil {
			b.Fatal(err)
		}
		work = res.Work
	}
	if work.UngappedExtensions != 0 {
		b.Fatalf("fixture triggered %d extensions", work.UngappedExtensions)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(work.SeedHits), "ns/hit")
	b.ReportMetric(float64(work.SeedHits)/float64(frag.TotalResidues()), "hits/residue")
}

func BenchmarkBuildIndexProtein(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	query := &seq.Sequence{ID: "bench-query", Residues: randomProtein(rng, 300), Alpha: seq.AlphabetFor(seq.Protein)}
	s, err := NewSearcher(DefaultProteinOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := s.Prepare(query)
		if err != nil {
			b.Fatal(err)
		}
		if p.work.IndexWords == 0 {
			b.Fatal("empty index")
		}
	}
}

func BenchmarkExtendGapped(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	q := randomProtein(rng, 200)
	s := mutate(rng, q, 0.15)
	var sc dpScratch
	var work WorkCounters
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work = WorkCounters{}
		r := extendGapped(&sc, q, s, matrix.BLOSUM62, matrix.DefaultProteinGaps, 1<<20, &work)
		if r.score <= 0 {
			b.Fatal("extension failed")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(work.GappedCells), "ns/cell")
}

func BenchmarkExtendUngapped(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	q := randomProtein(rng, 200)
	subj := append(append(randomProtein(rng, 100), q...), randomProtein(rng, 100)...)
	var work WorkCounters
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work = WorkCounters{}
		seg := extendUngapped(q, subj, 50, 150, matrix.BLOSUM62, 40, &work)
		if seg.score <= 0 {
			b.Fatal("ungapped extension failed")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(work.UngappedCells), "ns/cell")
}

func BenchmarkFormatHit(b *testing.B) {
	frag, query := benchFixture(16, 400)
	s, _ := NewSearcher(DefaultProteinOptions())
	ctx := s.NewContext()
	if err := ctx.SetQuery(query); err != nil {
		b.Fatal(err)
	}
	space := stats.NewSearchSpace(s.GappedParams(), query.Len(), frag.TotalResidues(), len(frag.Subjects))
	res, err := ctx.SearchFragment(frag, space)
	if err != nil || len(res.Hits) == 0 {
		b.Fatal("no hits to format")
	}
	hit := res.Hits[0]
	subj := frag.Subjects[hit.OID].Residues
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := FormatHit(query, subj, hit, matrix.BLOSUM62)
		if len(out) == 0 {
			b.Fatal("empty block")
		}
	}
}
