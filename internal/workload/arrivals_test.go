package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"parblast/internal/seq"
)

func testQueries(t *testing.T, n int) []*seq.Sequence {
	t.Helper()
	db, err := SynthesizeDB(DBConfig{Kind: seq.Protein, NumSeqs: n, MeanLen: 40, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestArrivalsDeterministic(t *testing.T) {
	qs := testQueries(t, 20)
	cfg := ArrivalConfig{Rate: 4, Burst: 3, BatchMean: 3, BatchDist: BatchGeometric, Seed: 7}
	a, err := Arrivals(qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Arrivals(qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed/config produced different batch sequences")
	}
	c, err := Arrivals(qs, ArrivalConfig{Rate: 4, Burst: 3, BatchMean: 3, BatchDist: BatchGeometric, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical batch sequences")
	}
}

// TestArrivalsPartition: every query appears exactly once, in order, and
// batch ids are the arrival order.
func TestArrivalsPartition(t *testing.T) {
	qs := testQueries(t, 17)
	for _, dist := range []string{BatchFixed, BatchUniform, BatchGeometric} {
		batches, err := Arrivals(qs, ArrivalConfig{Rate: 2, BatchMean: 4, BatchDist: dist, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		prevArrival := 0.0
		for i, b := range batches {
			if b.Seq != i {
				t.Fatalf("%s: batch %d has Seq %d", dist, i, b.Seq)
			}
			if b.First != next {
				t.Fatalf("%s: batch %d starts at query %d, want %d", dist, i, b.First, next)
			}
			if len(b.Queries) == 0 {
				t.Fatalf("%s: batch %d is empty", dist, i)
			}
			for j, q := range b.Queries {
				if q != qs[next+j] {
					t.Fatalf("%s: batch %d query %d is not input query %d", dist, i, j, next+j)
				}
			}
			if b.Arrival < prevArrival {
				t.Fatalf("%s: arrivals not monotone at batch %d", dist, i)
			}
			prevArrival = b.Arrival
			next += len(b.Queries)
		}
		if next != len(qs) {
			t.Fatalf("%s: %d queries batched, want %d", dist, next, len(qs))
		}
	}
}

// TestArrivalsExactRateScaling: with the same seed, doubling Rate halves
// every arrival time bit-exactly and leaves the partition untouched — the
// property that makes the SLA sweep's monotone-p99 gate deterministic.
func TestArrivalsExactRateScaling(t *testing.T) {
	qs := testQueries(t, 24)
	base := ArrivalConfig{Rate: 1, Burst: 4, BatchMean: 2, BatchDist: BatchUniform, Seed: 5}
	slow, err := Arrivals(qs, base)
	if err != nil {
		t.Fatal(err)
	}
	fast := base
	fast.Rate = 2
	fastB, err := Arrivals(qs, fast)
	if err != nil {
		t.Fatal(err)
	}
	if len(slow) != len(fastB) {
		t.Fatalf("partition changed with rate: %d vs %d batches", len(slow), len(fastB))
	}
	for i := range slow {
		if slow[i].First != fastB[i].First || len(slow[i].Queries) != len(fastB[i].Queries) {
			t.Fatalf("batch %d boundaries changed with rate", i)
		}
		if fastB[i].Arrival != slow[i].Arrival/2 {
			t.Fatalf("batch %d arrival %g at rate 2, want exactly %g", i, fastB[i].Arrival, slow[i].Arrival/2)
		}
	}
}

// TestArrivalsMMPP: a burst factor > 1 produces a different (bursty) gap
// sequence with the same long-run pacing order of magnitude, and the mean
// batch size tracks BatchMean for the geometric distribution.
func TestArrivalsMMPP(t *testing.T) {
	qs := testQueries(t, 400)
	plain, err := Arrivals(qs, ArrivalConfig{Rate: 10, BatchMean: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	bursty, err := Arrivals(qs, ArrivalConfig{Rate: 10, Burst: 8, BatchMean: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 400 || len(bursty) != 400 {
		t.Fatalf("batch counts: %d plain, %d bursty", len(plain), len(bursty))
	}
	// Gap variance must rise under bursts (that is what MMPP is for).
	variance := func(bs []Batch) float64 {
		var gaps []float64
		prev := 0.0
		for _, b := range bs {
			gaps = append(gaps, b.Arrival-prev)
			prev = b.Arrival
		}
		var mean float64
		for _, g := range gaps {
			mean += g
		}
		mean /= float64(len(gaps))
		var v float64
		for _, g := range gaps {
			v += (g - mean) * (g - mean)
		}
		return v / float64(len(gaps))
	}
	if variance(bursty) <= variance(plain) {
		t.Fatalf("burst variance %g not above plain %g", variance(bursty), variance(plain))
	}
	// Long-run mean rate stays near Rate for both (within a loose
	// statistical band — the draw count is fixed by the seed, so this is
	// deterministic, not flaky).
	for name, bs := range map[string][]Batch{"plain": plain, "bursty": bursty} {
		mean := bs[len(bs)-1].Arrival / float64(len(bs))
		if math.Abs(mean-0.1) > 0.05 {
			t.Fatalf("%s mean gap %g, want ≈0.1", name, mean)
		}
	}
	// Geometric sizes average out near BatchMean.
	geo, err := Arrivals(qs, ArrivalConfig{Rate: 10, BatchMean: 5, BatchDist: BatchGeometric, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	meanSize := float64(len(qs)) / float64(len(geo))
	if meanSize < 3 || meanSize > 8 {
		t.Fatalf("geometric mean batch size %g, want ≈5", meanSize)
	}
}

func TestArrivalsValidation(t *testing.T) {
	qs := testQueries(t, 2)
	for _, cfg := range []ArrivalConfig{
		{Rate: 0},
		{Rate: -1},
		{Rate: math.Inf(1)},
		{Rate: 1, Burst: 0.5},
		{Rate: 1, Burst: math.NaN()},
		{Rate: 1, Burst: math.Inf(1)},
		{Rate: 1, Burst: 1e308},
		{Rate: 1, BatchMean: -2},
		{Rate: 1, BatchDist: "zipf"},
	} {
		if _, err := Arrivals(qs, cfg); err == nil {
			t.Fatalf("config %+v accepted, want error", cfg)
		}
	}
	// Means above 2^52 overflow the uniform bound or round the geometric
	// draws to 1; they are rejected by name, and 2^52 itself is accepted.
	for _, tc := range []struct {
		cfg  ArrivalConfig
		want string // "" = accepted
	}{
		{ArrivalConfig{Rate: 1, BatchMean: 1<<62 + 1, BatchDist: BatchUniform}, "batch mean must be ≤ 2^52"},
		{ArrivalConfig{Rate: 1, BatchMean: 1 << 62, BatchDist: BatchGeometric}, "batch mean must be ≤ 2^52"},
		{ArrivalConfig{Rate: 1, BatchMean: 1 << 52, BatchDist: BatchUniform}, ""},
		{ArrivalConfig{Rate: 1, BatchMean: 1 << 52, BatchDist: BatchGeometric}, ""},
	} {
		_, err := Arrivals(qs, tc.cfg)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("config %+v rejected: %v", tc.cfg, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("config %+v: error %v, want %q", tc.cfg, err, tc.want)
		}
	}
	empty, err := Arrivals(nil, ArrivalConfig{Rate: 1})
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty query set: %v, %d batches", err, len(empty))
	}
}
