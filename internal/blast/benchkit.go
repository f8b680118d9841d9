package blast

import (
	"math/rand"
	"testing"

	"parblast/internal/matrix"
	"parblast/internal/seq"
	"parblast/internal/stats"
)

// Benchkit exposes the kernel micro-benchmarks to non-test tooling
// (cmd/benchsuite) via testing.Benchmark, so the recorded perf trajectory
// (BENCH_N.json) measures exactly what `go test -bench` measures.

// KernelBenchResult is one benchmark measurement.
type KernelBenchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

func kbRandomProtein(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(20))
	}
	return out
}

// kbMutate applies point mutations and small indels, returning a homolog.
// It mirrors the test fixture generator so benchmark inputs stay comparable
// with the in-test benchmarks.
func kbMutate(rng *rand.Rand, in []byte, rate float64) []byte {
	out := make([]byte, 0, len(in)+4)
	for _, c := range in {
		r := rng.Float64()
		switch {
		case r < rate*0.6: // substitution
			out = append(out, byte(rng.Intn(20)))
		case r < rate*0.8: // deletion
		case r < rate: // insertion
			out = append(out, c, byte(rng.Intn(20)))
		default:
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		out = append(out, 0)
	}
	return out
}

// kbFixture builds the same mid-sized planted-homolog fragment as the
// in-test benchFixture (seed 42, homologs at OIDs 3/17/41).
func kbFixture(nSubj, subjLen int) (*Fragment, *seq.Sequence) {
	rng := rand.New(rand.NewSource(42))
	frag := &Fragment{}
	for i := 0; i < nSubj; i++ {
		frag.Subjects = append(frag.Subjects, Subject{
			OID: i, Residues: kbRandomProtein(rng, subjLen),
		})
	}
	query := &seq.Sequence{
		ID:       "bench-query",
		Residues: kbRandomProtein(rng, 300),
		Alpha:    seq.AlphabetFor(seq.Protein),
	}
	for _, oid := range []int{3, 17, 41} {
		if oid < nSubj {
			hom := kbMutate(rng, query.Residues, 0.15)
			if len(hom) > subjLen-10 {
				hom = hom[:subjLen-10]
			}
			copy(frag.Subjects[oid].Residues[5:], hom)
		}
	}
	return frag, query
}

func kbSearchFragment(threads int) func(b *testing.B) {
	return func(b *testing.B) {
		frag, query := kbFixture(64, 400)
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
	}
}

func kbBuildIndex(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	query := &seq.Sequence{ID: "bench-query", Residues: kbRandomProtein(rng, 300), Alpha: seq.AlphabetFor(seq.Protein)}
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

func kbExtendGapped(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	q := kbRandomProtein(rng, 200)
	s := kbMutate(rng, q, 0.15)
	var sc dpScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var work WorkCounters
		r := extendGapped(&sc, q, s, matrix.BLOSUM62, matrix.DefaultProteinGaps, 1<<20, &work)
		if r.score <= 0 {
			b.Fatal("extension failed")
		}
	}
}

// RunKernelBenchmarks executes the kernel micro-benchmarks and returns the
// measurements, in a fixed order.
func RunKernelBenchmarks() []KernelBenchResult {
	cases := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"SearchFragment", kbSearchFragment(1)},
		{"SearchFragment4Threads", kbSearchFragment(4)},
		{"BuildIndexProtein", kbBuildIndex},
		{"ExtendGapped", kbExtendGapped},
	}
	out := make([]KernelBenchResult, 0, len(cases))
	for _, c := range cases {
		r := testing.Benchmark(c.fn)
		out = append(out, KernelBenchResult{
			Name:        c.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return out
}
