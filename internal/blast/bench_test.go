package blast

import (
	"math/rand"
	"slices"
	"testing"

	"parblast/internal/matrix"
	"parblast/internal/seq"
	"parblast/internal/stats"
	"parblast/internal/workload"
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

// benchSearchFragment searches query against frag through a bank with
// threads kernel slots: the one-query search of the sequential engine.
func benchSearchFragment(b *testing.B, frag *Fragment, query *seq.Sequence, threads int) {
	opts := DefaultProteinOptions()
	opts.SearchThreads = threads
	bank, err := NewQueryBank(opts)
	if err != nil {
		b.Fatal(err)
	}
	one := []*seq.Sequence{query}
	spaces := []stats.SearchSpace{stats.NewSearchSpace(bank.Searcher().GappedParams(), query.Len(), frag.TotalResidues(), len(frag.Subjects))}
	var res []*QueryResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err = bank.Search(res[:0], one, frag, spaces); err != nil {
			b.Fatal(err)
		}
		if len(res[0].Hits) == 0 {
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
// all have even index with one kernel slot and with two: slots that split the
// subjects by index would gain nothing there, slots that claim them as they
// come free do (given two cores).
func BenchmarkSearchFragmentSkewed(b *testing.B) {
	frag, query := skewedFixture(80)
	for _, threads := range []int{1, 2} {
		b.Run("threads="+itoa(threads), func(b *testing.B) { benchSearchFragment(b, frag, query, threads) })
	}
}

// benchQueries draws n queries of 250–350 residues from rng, each with a
// homolog planted in frag when it has room for one.
func benchQueries(rng *rand.Rand, frag *Fragment, n int) []*seq.Sequence {
	queries := make([]*seq.Sequence, n)
	for i := range queries {
		queries[i] = proteinSeq("q"+itoa(i), randomProtein(rng, 250+rng.Intn(100)))
		if 3*i < len(frag.Subjects) {
			hom := mutate(rng, queries[i].Residues, 0.2)
			sub := frag.Subjects[3*i].Residues
			copy(sub[5:], hom[:min(len(hom), len(sub)-10)])
		}
	}
	return queries
}

// BenchmarkSearchQueries is the shape SearchLoop.searchAll runs: one context
// searches 18 queries against one 64 × 400 fragment, in batches of 1 (the
// sequential oracle's shape), 2 (a served batch) or 18 (the one-shot
// pio_narrow_8 batch). Each batch encodes and scans every subject once.
// ns/residue is per (query, subject residue), so the rows compare directly.
func BenchmarkSearchQueries(b *testing.B) {
	frag, _ := benchFixture(64, 400)
	queries := benchQueries(rand.New(rand.NewSource(43)), frag, 18)
	opts := DefaultProteinOptions()
	s, err := NewSearcher(opts)
	if err != nil {
		b.Fatal(err)
	}
	spaces := make([]stats.SearchSpace, len(queries))
	for i, q := range queries {
		spaces[i] = spaceFor(s, q.Len(), frag)
	}
	for _, size := range []int{1, 2, 18} {
		b.Run("batch="+itoa(size), func(b *testing.B) {
			prepared := make([]*PreparedBatch, 0, len(queries)/size)
			for lo := 0; lo < len(queries); lo += size {
				p, err := s.prepareBatch(queries[lo : lo+size])
				if err != nil {
					b.Fatal(err)
				}
				prepared = append(prepared, p)
			}
			residues := int64(len(queries)) * frag.TotalResidues()
			ctx := s.NewContext()
			var results []*QueryResult
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k, p := range prepared {
					lo := k * size
					results = ctx.searchBatch(results[:0], queries[lo:lo+size], p, frag, spaces[lo:lo+size])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(residues), "ns/residue")
		})
	}
}

// BenchmarkScanSubject times the seed scan alone, for a batch of 18 queries:
// with a two-hit window shorter than a word no pair of hits ever qualifies,
// so nothing is extended and the cost is the lookup probe per position and
// the per-hit two-hit bookkeeping, plus encoding each subject's word ids.
func BenchmarkScanSubject(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	frag := testFragment(rng, 32, 400)
	queries := benchQueries(rng, &Fragment{}, 18)
	opts := DefaultProteinOptions()
	opts.TwoHitWindow = opts.WordSize - 1
	s, err := NewSearcher(opts)
	if err != nil {
		b.Fatal(err)
	}
	p, err := s.prepareBatch(queries)
	if err != nil {
		b.Fatal(err)
	}
	ctx := s.NewContext()
	spaces := make([]stats.SearchSpace, len(queries))
	for i, q := range queries {
		spaces[i] = spaceFor(s, q.Len(), frag)
	}
	var results []*QueryResult
	var work WorkCounters
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results = ctx.searchBatch(results[:0], queries, p, frag, spaces)
		work = WorkCounters{}
		for _, res := range results {
			work.Add(res.Work)
		}
	}
	if work.UngappedExtensions != 0 {
		b.Fatalf("fixture triggered %d extensions", work.UngappedExtensions)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(work.SeedHits), "ns/hit")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(int64(len(queries))*frag.TotalResidues()), "ns/residue")
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
		p, err := s.prepareBatch([]*seq.Sequence{query})
		if err != nil {
			b.Fatal(err)
		}
		if p.work[0].IndexWords == 0 {
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
		seg := extendUngapped(q, subj, 50, 150, blosum62Table, 40, &work)
		if seg.score <= 0 {
			b.Fatal("ungapped extension failed")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(work.UngappedCells), "ns/cell")
}

// jobSeed is one ungapped extension of a search: a hit of query q at
// (qPos, sPos) on subject s.
type jobSeed struct {
	q, s       []byte
	qPos, sPos int
}

// jobSeeds replays the two-hit rule of a pio_narrow_8-shaped batch — a
// database of 600 proteins of mean length 300 in families of 12, and about
// 18 queries of mean length 300 cut from it with 5 % mutations, the
// benchmark's inputs — and returns the seeds it extends, in scan order. Each
// diagonal's extension level comes from the real extension, so the mix of
// short random extensions and long homologous ones is the search's.
func jobSeeds(tb testing.TB, s *Searcher) []jobSeed {
	db, err := workload.SynthesizeDB(workload.DBConfig{Kind: seq.Protein, NumSeqs: 600, MeanLen: 300, Seed: 1, FamilySize: 12})
	if err != nil {
		tb.Fatal(err)
	}
	queries, err := workload.SampleQueries(db, workload.QueryConfig{TargetBytes: 4500, MeanLen: 300, MutationRate: 0.05, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	frag := &Fragment{Subjects: make([]Subject, len(db))}
	for i, d := range db {
		frag.Subjects[i] = Subject{OID: i, ID: d.ID, Residues: d.Residues}
	}
	w, window := s.opts.WordSize, s.opts.TwoHitWindow
	var seeds []jobSeed
	var work WorkCounters
	for _, q := range queries {
		p, err := s.prepareBatch([]*seq.Sequence{q})
		if err != nil {
			tb.Fatal(err)
		}
		g := &p.groups[0] // one query: its entries are bare positions
		for _, sub := range frag.Subjects {
			subj := sub.Residues
			// Per diagonal sPos-qPos+len(q): the last hit and the extension level.
			last, level := make([]int, len(q.Residues)+len(subj)), make([]int, len(q.Residues)+len(subj))
			for d := range last {
				last[d] = -window - 1
			}
			var id uint64
			run := 0
			for j := range subj {
				if id, run = s.roll.next(id, run, subj, j); run < w {
					continue
				}
				sPos := j - w + 1
				for _, qPos := range g.entries[g.offsets[id]:g.offsets[id+1]] {
					d := sPos - int(qPos) + len(q.Residues)
					gap := sPos - last[d]
					if sPos < level[d] || gap < w {
						continue
					}
					last[d] = sPos
					if gap <= window {
						seeds = append(seeds, jobSeed{q.Residues, subj, int(qPos), sPos})
						level[d] = extendUngapped(q.Residues, subj, int(qPos), sPos, &s.tab.scores, s.xdropUngapped, &work).sTo
					}
				}
			}
		}
	}
	return seeds
}

// BenchmarkExtendUngappedMix times the ungapped extensions of jobSeeds under
// the searcher's X-drop: a pio_narrow_8 batch runs about 73 k of them,
// averaging 39 cells, and so do jobSeeds' inputs, scanned once. One
// iteration extends every seed once.
func BenchmarkExtendUngappedMix(b *testing.B) {
	s, err := NewSearcher(DefaultProteinOptions())
	if err != nil {
		b.Fatal(err)
	}
	seeds := jobSeeds(b, s)
	var work WorkCounters
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work = WorkCounters{}
		for _, sd := range seeds {
			extendUngapped(sd.q, sd.s, sd.qPos, sd.sPos, &s.tab.scores, s.xdropUngapped, &work)
		}
	}
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(ns/float64(work.UngappedExtensions), "ns/ext")
	b.ReportMetric(float64(work.UngappedCells)/float64(work.UngappedExtensions), "cells/ext")
	b.ReportMetric(ns/float64(work.UngappedCells), "ns/cell")
}

// BenchmarkExtendGappedBanded times the gapped extensions the seeds of
// jobSeeds trigger, both halves of each as gappedFromSeed runs them, under
// the searcher's X-drop: a pio_narrow_8 batch runs about 456, averaging
// 11.5 k cells. One iteration runs every extension once.
func BenchmarkExtendGappedBanded(b *testing.B) {
	s, err := NewSearcher(DefaultProteinOptions())
	if err != nil {
		b.Fatal(err)
	}
	// As subjectScan.extend does, a seed inside the box of an HSP already
	// found on its (query, subject) pair is not extended again.
	type half struct{ q, s []byte }
	var halves []half
	var boxes []hspBox
	var work WorkCounters
	var sc dpScratch
	seeds := jobSeeds(b, s)
	for i, sd := range seeds {
		if i > 0 && (&sd.q[0] != &seeds[i-1].q[0] || &sd.s[0] != &seeds[i-1].s[0]) {
			boxes = boxes[:0]
		}
		seg := extendUngapped(sd.q, sd.s, sd.qPos, sd.sPos, &s.tab.scores, s.xdropUngapped, &work)
		if seg.score < s.gapTrigger || slices.ContainsFunc(boxes, func(b hspBox) bool {
			return seg.seedQ >= b.q0 && seg.seedQ < b.q1 && seg.seedS >= b.s0 && seg.seedS < b.s1
		}) {
			continue
		}
		right := half{sd.q[seg.seedQ:], sd.s[seg.seedS:]}
		left := half{reverseInto(nil, sd.q[:seg.seedQ]), reverseInto(nil, sd.s[:seg.seedS])}
		halves = append(halves, right, left)
		r := extendGapped(&sc, right.q, right.s, s.opts.Matrix, s.opts.Gaps, s.xdropGapped, &work)
		l := extendGapped(&sc, left.q, left.s, s.opts.Matrix, s.opts.Gaps, s.xdropGapped, &work)
		boxes = append(boxes, hspBox{seg.seedQ - l.qEnd, seg.seedQ + r.qEnd, seg.seedS - l.sEnd, seg.seedS + r.sEnd})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work = WorkCounters{}
		for _, h := range halves {
			extendGapped(&sc, h.q, h.s, s.opts.Matrix, s.opts.Gaps, s.xdropGapped, &work)
		}
	}
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(ns/float64(work.GappedExtensions), "ns/ext")
	b.ReportMetric(float64(work.GappedCells)/float64(work.GappedExtensions), "cells/ext")
	b.ReportMetric(ns/float64(work.GappedCells), "ns/cell")
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
		out := RenderHit(FormatPairwise, query, subj, hit, matrix.BLOSUM62)
		if len(out) == 0 {
			b.Fatal("empty block")
		}
	}
}
