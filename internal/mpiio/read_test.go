package mpiio

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"parblast/internal/metrics"
	"parblast/internal/mpi"
	"parblast/internal/vfs"
)

// runReaders executes body on n ranks over a file holding total and
// returns each rank's read result.
func runReaders(t *testing.T, n int, profile vfs.Profile, total []byte,
	cfg mpi.Config, body func(r *mpi.Rank, f *File) ([]byte, error)) [][]byte {
	t.Helper()
	fs := vfs.MustNew(profile)
	fs.WriteFile("db", total)
	got := make([][]byte, n)
	var mu sync.Mutex
	if cfg.Cost.NetBandwidth == 0 {
		cfg.Cost = testCost()
	}
	_, _, err := mpi.RunConfig(n, cfg, func(r *mpi.Rank) error {
		f, err := Open(r, fs, "db")
		if err != nil {
			return err
		}
		data, err := body(r, f)
		if err != nil {
			return err
		}
		mu.Lock()
		got[r.ID()] = data
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestReadCollectiveMatchesViews(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		for _, prof := range []vfs.Profile{vfs.XFSLike(), vfs.NFSLike()} {
			t.Run(fmt.Sprintf("n=%d/%s", n, prof.Name), func(t *testing.T) {
				views, want, total := interleavedViews(n, 4*n+1, 53)
				got := runReaders(t, n, prof, total, mpi.Config{}, func(r *mpi.Rank, f *File) ([]byte, error) {
					if err := f.SetView(views[r.ID()]); err != nil {
						return nil, err
					}
					return f.ReadCollective()
				})
				for i := 0; i < n; i++ {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("rank %d read %d bytes, want %d (first diff at %d)",
							i, len(got[i]), len(want[i]), firstMismatch(got[i], want[i]))
					}
				}
			})
		}
	}
}

func firstMismatch(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func TestReadIndependentMatchesViews(t *testing.T) {
	n := 4
	views, want, total := interleavedViews(n, 9, 31)
	got := runReaders(t, n, vfs.XFSLike(), total, mpi.Config{}, func(r *mpi.Rank, f *File) ([]byte, error) {
		if err := f.SetView(views[r.ID()]); err != nil {
			return nil, err
		}
		return f.ReadIndependent(), nil
	})
	for i := 0; i < n; i++ {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("rank %d mismatch", i)
		}
	}
}

func TestReadCollectiveEmptyParticipants(t *testing.T) {
	// Ranks 0 and 2 read nothing (empty views) but still participate.
	n := 4
	total := []byte("abcdefghijklmnopqrstuvwxyz0123456789")
	got := runReaders(t, n, vfs.NFSLike(), total, mpi.Config{}, func(r *mpi.Rank, f *File) ([]byte, error) {
		if r.ID()%2 == 0 {
			return f.ReadCollective()
		}
		off := int64((r.ID() - 1) / 2 * 18)
		if err := f.SetView(contiguousView(off, 18)); err != nil {
			return nil, err
		}
		return f.ReadCollective()
	})
	if len(got[0]) != 0 || len(got[2]) != 0 {
		t.Fatalf("empty-view ranks read %d and %d bytes", len(got[0]), len(got[2]))
	}
	if !bytes.Equal(got[1], total[:18]) || !bytes.Equal(got[3], total[18:]) {
		t.Fatalf("reader ranks got %q / %q", got[1], got[3])
	}
}

func TestReadCollectiveAllEmpty(t *testing.T) {
	got := runReaders(t, 3, vfs.XFSLike(), []byte("data"), mpi.Config{}, func(r *mpi.Rank, f *File) ([]byte, error) {
		return f.ReadCollective()
	})
	for i, g := range got {
		if len(g) != 0 {
			t.Fatalf("rank %d read %d bytes from an all-empty collective", i, len(g))
		}
	}
}

// TestReadCollectiveSievesHoles checks that an aggregator reads through
// sub-threshold holes in one access (waste counted) instead of splitting,
// and that unrequested bytes never leak into any rank's result.
func TestReadCollectiveSievesHoles(t *testing.T) {
	n := 2
	recSize := 64
	records := 16
	total := make([]byte, records*recSize)
	for i := range total {
		total[i] = byte(i * 7)
	}
	// Both ranks read every OTHER record: records 0,4,8,... to rank 0 and
	// 2,6,10,... to rank 1 — records 1,3,5,... are holes nobody wants.
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
	var waste, aggReads int64
	for _, c := range reg.Snapshot().Counters {
		switch c.Name {
		case "mpiio.sieve_waste_bytes":
			waste += c.Value
		case "mpiio.agg_reads":
			aggReads += c.Value
		}
	}
	// NFS sieve gap = 5ms × 30MB/s = 150KB ≫ the 64-byte holes, so the
	// whole strided pattern coalesces into ONE sequential read per
	// aggregator (NFS has one channel → one aggregator) and every second
	// record is transferred as waste.
	if aggReads != 1 {
		t.Fatalf("agg reads = %d, want 1 (sieving should coalesce the strided requests)", aggReads)
	}
	if wantWaste := int64((records/2 - 1) * recSize); waste != wantWaste {
		t.Fatalf("sieve waste = %d, want %d", waste, wantWaste)
	}
}

// TestReadCollectiveFasterThanIndependentOnNFS is the §3 read-side claim:
// strided independent reads pay per-operation latency on the one NFS
// channel, while the collective turns them into a few large sieved reads.
func TestReadCollectiveFasterThanIndependentOnNFS(t *testing.T) {
	n := 5
	views, _, total := interleavedViews(n, 40, 256)
	run := func(collective bool) float64 {
		fs := vfs.MustNew(vfs.NFSLike())
		fs.WriteFile("db", total)
		clocks, err := mpi.Run(n, testCost(), func(r *mpi.Rank) error {
			f, err := Open(r, fs, "db")
			if err != nil {
				return err
			}
			if err := f.SetView(views[r.ID()]); err != nil {
				return err
			}
			if collective {
				_, err := f.ReadCollective()
				return err
			}
			f.ReadIndependent()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var max float64
		for _, c := range clocks {
			if c.Now() > max {
				max = c.Now()
			}
		}
		return max
	}
	indep := run(false)
	coll := run(true)
	if coll*3 > indep {
		t.Fatalf("collective read %.4fs not ≥3× faster than independent %.4fs", coll, indep)
	}
}

// TestReadCollectiveSurvivesCrashes sweeps a victim's crash time across
// the protocol's phases (before the bounds exchange, during the request
// phase, during aggregation) and checks every surviving rank still reads
// exactly its view — the independent-read fallback path.
func TestReadCollectiveSurvivesCrashes(t *testing.T) {
	n := 4
	victim := 2
	for _, at := range []float64{0, 1e-4, 3e-4, 1e-3, 5e-3} {
		t.Run(fmt.Sprintf("at=%g", at), func(t *testing.T) {
			views, want, total := interleavedViews(n, 4*n, 97)
			cfg := mpi.Config{
				Cost:   testCost(),
				Faults: []mpi.Fault{{Rank: victim, At: at}},
			}
			got := runReaders(t, n, vfs.XFSLike(), total, cfg, func(r *mpi.Rank, f *File) ([]byte, error) {
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

// TestAsyncReadOverlapsCompute checks the max(io, compute) accounting:
// a read started before a compute block costs only the part that is not
// hidden behind the compute.
func TestAsyncReadOverlapsCompute(t *testing.T) {
	fs := vfs.MustNew(vfs.NFSLike())
	payload := make([]byte, 1<<20)
	fs.WriteFile("db", payload)
	const units = int64(200_000_000) // 2s of compute at 1e-8 s/unit

	elapsed := func(async bool) float64 {
		fsLocal := vfs.MustNew(vfs.NFSLike())
		fsLocal.WriteFile("db", payload)
		clocks, err := mpi.Run(1, testCost(), func(r *mpi.Rank) error {
			f, err := Open(r, fsLocal, "db")
			if err != nil {
				return err
			}
			if async {
				ar := f.StartReadAt(0, int64(len(payload)))
				r.Compute(units)
				if got := ar.Wait(); len(got) != len(payload) {
					return fmt.Errorf("short async read: %d", len(got))
				}
			} else {
				if got := f.ReadAt(0, int64(len(payload))); len(got) != len(payload) {
					return fmt.Errorf("short read: %d", len(got))
				}
				r.Compute(units)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return clocks[0].Now()
	}

	sync := elapsed(false)
	async := elapsed(true)
	// The 1MB NFS read takes ~38ms, fully hidden behind 2s of compute:
	// async pays max(io, compute) = compute only.
	if async >= sync {
		t.Fatalf("async %.4fs not faster than sync %.4fs", async, sync)
	}
	const compute = 2.0
	if async > compute*1.01 {
		t.Fatalf("async time %.4fs should collapse to the compute time %.2fs", async, compute)
	}
}

// TestAsyncReadDeterministic re-runs an overlapped schedule and demands
// identical virtual clocks.
func TestAsyncReadDeterministic(t *testing.T) {
	run := func() []float64 {
		n := 3
		views, _, total := interleavedViews(n, 12, 128)
		fs := vfs.MustNew(vfs.XFSLike())
		fs.WriteFile("db", total)
		clocks, err := mpi.Run(n, testCost(), func(r *mpi.Rank) error {
			f, err := Open(r, fs, "db")
			if err != nil {
				return err
			}
			var handles []*AsyncRead
			for _, s := range views[r.ID()].Segments {
				handles = append(handles, f.StartReadAt(s.Offset, s.Length))
			}
			r.Compute(1000)
			for _, h := range handles {
				h.Wait()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, n)
		for i, c := range clocks {
			out[i] = c.Now()
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d: %.9f vs %.9f across runs", i, a[i], b[i])
		}
	}
}
