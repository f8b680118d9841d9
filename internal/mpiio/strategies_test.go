package mpiio

import (
	"bytes"
	"fmt"
	"testing"

	"parblast/internal/metrics"
	"parblast/internal/mpi"
	"parblast/internal/vfs"
)

func allStrategies() []Strategy {
	return []Strategy{StrategyTwoPhase, StrategyListIO, StrategyIndependent}
}

// counterTotal sums a counter across all ranks in the registry.
func counterTotal(reg *metrics.Registry, name string) int64 {
	var total int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name {
			total += c.Value
		}
	}
	return total
}

// TestReadCollectiveStrategiesMatchViews sweeps every read strategy over
// the interleaved pattern on both platform profiles: byte identity is the
// gate for every strategy, and each run must account its ops under the
// right mpiio.strategy.* counter.
func TestReadCollectiveStrategiesMatchViews(t *testing.T) {
	for _, strat := range allStrategies() {
		for _, prof := range []vfs.Profile{vfs.XFSLike(), vfs.NFSLike()} {
			t.Run(fmt.Sprintf("%s/%s", strat, prof.Name), func(t *testing.T) {
				n := 3
				views, want, total := interleavedViews(n, 4*n+1, 53)
				reg := metrics.NewRegistry()
				got := runReaders(t, n, prof, total, mpi.Config{Cost: testCost(), Metrics: reg},
					func(r *mpi.Rank, f *File) ([]byte, error) {
						if err := f.SetHints(Hints{ReadStrategy: strat}); err != nil {
							return nil, err
						}
						if err := f.SetView(views[r.ID()]); err != nil {
							return nil, err
						}
						return f.ReadCollective()
					})
				for i := 0; i < n; i++ {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("rank %d mismatch at %d", i, firstMismatch(got[i], want[i]))
					}
				}
				if c := counterTotal(reg, "mpiio.strategy."+strat.slug()); c != int64(n) {
					t.Fatalf("strategy counter = %d, want %d", c, n)
				}
			})
		}
	}
}

// TestReadCollectiveStrategiesSurviveCrashes repeats the crash-time sweep
// for every strategy: byte identity for every survivor is part of the
// contract no matter how the bytes move.
func TestReadCollectiveStrategiesSurviveCrashes(t *testing.T) {
	n := 4
	victim := 2
	for _, strat := range allStrategies() {
		for _, at := range []float64{0, 1e-4, 3e-4, 1e-3, 5e-3} {
			t.Run(fmt.Sprintf("%s/at=%g", strat, at), func(t *testing.T) {
				views, want, total := interleavedViews(n, 4*n, 97)
				cfg := mpi.Config{
					Cost:   testCost(),
					Faults: []mpi.Fault{{Rank: victim, At: at, Kind: mpi.FaultCrash}},
				}
				got := runReaders(t, n, vfs.XFSLike(), total, cfg, func(r *mpi.Rank, f *File) ([]byte, error) {
					if err := f.SetHints(Hints{ReadStrategy: strat}); err != nil {
						return nil, err
					}
					if err := f.SetView(views[r.ID()]); err != nil {
						return nil, err
					}
					return f.ReadCollective()
				})
				for i := 0; i < n; i++ {
					if i == victim {
						continue
					}
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("surviving rank %d mismatch at %d (crash at %g)",
							i, firstMismatch(got[i], want[i]), at)
					}
				}
			})
		}
	}
}

// TestReadCollectiveStrategiesSurviveTransientFaults injects transient
// storage errors (failed attempts with backoff, then success) under every
// strategy: retries cost virtual time but never bytes.
func TestReadCollectiveStrategiesSurviveTransientFaults(t *testing.T) {
	n := 3
	for _, strat := range allStrategies() {
		t.Run(strat.String(), func(t *testing.T) {
			views, want, total := interleavedViews(n, 4*n, 61)
			fs := vfs.MustNew(vfs.NFSLike())
			fs.WriteFile("db", total)
			if err := fs.InjectFaults(vfs.FaultPlan{FirstOp: 1, Every: 2, Count: 5, Failures: 1, Backoff: 1e-3}); err != nil {
				t.Fatal(err)
			}
			got := make([][]byte, n)
			_, err := mpi.Run(n, testCost(), func(r *mpi.Rank) error {
				f, err := Open(r, fs, "db")
				if err != nil {
					return err
				}
				if err := f.SetHints(Hints{ReadStrategy: strat}); err != nil {
					return err
				}
				if err := f.SetView(views[r.ID()]); err != nil {
					return err
				}
				data, err := f.ReadCollective()
				got[r.ID()] = data
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("rank %d mismatch at %d", i, firstMismatch(got[i], want[i]))
				}
			}
		})
	}
}

// TestSieveAbsorbBoundary pins the off-by-one fix in the absorb condition
// with exact arithmetic: a hole of exactly the sieve gap starts a new run
// (reading through it saves nothing), a hole one byte narrower is sieved
// through and counted as waste. The gap comes from an explicit hint so no
// float truncation can blur the boundary.
func TestSieveAbsorbBoundary(t *testing.T) {
	const gap = int64(64000)
	const seg = int64(100)
	for _, tc := range []struct {
		name      string
		hole      int64
		wantReads int64
		wantWaste int64
	}{
		{"hole == gap splits", gap, 2, 0},
		{"hole == gap-1 sieves", gap - 1, 1, gap - 1},
		{"abutting coalesces", 0, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			total := make([]byte, 2*seg+tc.hole)
			for i := range total {
				total[i] = byte(i*31 + 5)
			}
			view := View{Segments: []Segment{
				{Offset: 0, Length: seg},
				{Offset: seg + tc.hole, Length: seg},
			}}
			var want []byte
			want = append(want, total[:seg]...)
			want = append(want, total[seg+tc.hole:]...)
			reg := metrics.NewRegistry()
			got := runReaders(t, 1, vfs.NFSLike(), total, mpi.Config{Cost: testCost(), Metrics: reg},
				func(r *mpi.Rank, f *File) ([]byte, error) {
					if err := f.SetHints(Hints{SieveGap: gap}); err != nil {
						return nil, err
					}
					if err := f.SetView(view); err != nil {
						return nil, err
					}
					return f.ReadCollective()
				})
			if !bytes.Equal(got[0], want) {
				t.Fatalf("mismatch at %d", firstMismatch(got[0], want))
			}
			if reads := counterTotal(reg, "mpiio.agg_reads"); reads != tc.wantReads {
				t.Fatalf("agg reads = %d, want %d", reads, tc.wantReads)
			}
			if waste := counterTotal(reg, "mpiio.sieve_waste_bytes"); waste != tc.wantWaste {
				t.Fatalf("sieve waste = %d, want %d", waste, tc.wantWaste)
			}
		})
	}
}

// TestListIOZeroWaste re-runs the sieve-holes pattern under list-I/O: one
// exact access per requested record, zero waste by construction.
func TestListIOZeroWaste(t *testing.T) {
	n := 2
	recSize := 64
	records := 16
	total := make([]byte, records*recSize)
	for i := range total {
		total[i] = byte(i * 7)
	}
	views := make([]View, n)
	want := make([][]byte, n)
	for rec := 0; rec < records; rec += 2 {
		owner := (rec / 2) % n
		views[owner].Segments = append(views[owner].Segments,
			Segment{Offset: int64(rec * recSize), Length: int64(recSize)})
		want[owner] = append(want[owner], total[rec*recSize:(rec+1)*recSize]...)
	}
	reg := metrics.NewRegistry()
	got := runReaders(t, n, vfs.NFSLike(), total, mpi.Config{Cost: testCost(), Metrics: reg},
		func(r *mpi.Rank, f *File) ([]byte, error) {
			if err := f.SetHints(Hints{ReadStrategy: StrategyListIO}); err != nil {
				return nil, err
			}
			if err := f.SetView(views[r.ID()]); err != nil {
				return nil, err
			}
			return f.ReadCollective()
		})
	for i := 0; i < n; i++ {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("rank %d mismatch at %d", i, firstMismatch(got[i], want[i]))
		}
	}
	if waste := counterTotal(reg, "mpiio.sieve_waste_bytes"); waste != 0 {
		t.Fatalf("list-io sieve waste = %d, want 0", waste)
	}
	// Every second record is requested and none abut → one exact access
	// per requested record.
	if reads := counterTotal(reg, "mpiio.agg_reads"); reads != int64(records/2) {
		t.Fatalf("list-io accesses = %d, want %d", reads, records/2)
	}
	if lio := counterTotal(reg, "mpiio.listio_reads"); lio != int64(records/2) {
		t.Fatalf("listio_reads counter = %d, want %d", lio, records/2)
	}
}

// TestCollectivesSkipZeroLengthSegments covers zero-length and empty-view
// requests through both collectives under every strategy: byte identity,
// and — under the independent strategy, where each segment would pay an
// operation — zero-length segments must not cost an access.
func TestCollectivesSkipZeroLengthSegments(t *testing.T) {
	n := 3
	total := make([]byte, 3*64)
	for i := range total {
		total[i] = byte(i*11 + 3)
	}
	// Rank 0: zero-length segments sandwiching a real one; rank 1: only
	// zero-length segments (an "empty" view with entries); rank 2: empty.
	views := []View{
		{Segments: []Segment{{Offset: 0, Length: 0}, {Offset: 64, Length: 64}, {Offset: 128, Length: 0}}},
		{Segments: []Segment{{Offset: 8, Length: 0}, {Offset: 100, Length: 0}}},
		{},
	}
	want := [][]byte{total[64:128], {}, {}}
	for _, strat := range allStrategies() {
		t.Run("read/"+strat.String(), func(t *testing.T) {
			reg := metrics.NewRegistry()
			got := runReaders(t, n, vfs.XFSLike(), total, mpi.Config{Cost: testCost(), Metrics: reg},
				func(r *mpi.Rank, f *File) ([]byte, error) {
					if err := f.SetHints(Hints{ReadStrategy: strat}); err != nil {
						return nil, err
					}
					if err := f.SetView(views[r.ID()]); err != nil {
						return nil, err
					}
					return f.ReadCollective()
				})
			for i := 0; i < n; i++ {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("rank %d read %q, want %q", i, got[i], want[i])
				}
			}
			if strat == StrategyIndependent {
				// One real segment in the whole collective → one read.
				if reads := counterTotal(reg, "mpiio.reads"); reads != 1 {
					t.Fatalf("independent reads = %d, want 1 (zero-length segments must not pay latency)", reads)
				}
			}
		})
	}

	t.Run("write", func(t *testing.T) {
		for _, independent := range []bool{false, true} {
			reg := metrics.NewRegistry()
			fs := vfs.MustNew(vfs.XFSLike())
			fs.WriteFile("out", make([]byte, len(total)))
			_, _, err := mpi.RunConfig(n, mpi.Config{Cost: testCost(), Metrics: reg}, func(r *mpi.Rank) error {
				f := OpenOrCreate(r, fs, "out")
				if err := f.SetView(views[r.ID()]); err != nil {
					return err
				}
				data := want[r.ID()]
				if independent {
					if err := f.WriteIndependent(data); err != nil {
						return err
					}
					r.Barrier()
					return nil
				}
				return f.WriteCollective(data)
			})
			if err != nil {
				t.Fatal(err)
			}
			out, err := fs.ReadFile("out")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out[64:128], total[64:128]) {
				t.Fatalf("independent=%v: written range corrupt", independent)
			}
			if independent {
				if writes := counterTotal(reg, "mpiio.independent_writes"); writes != 1 {
					t.Fatalf("independent writes = %d, want 1", writes)
				}
			}
		}
	})
}
