package mpiio

import (
	"bytes"
	"fmt"
	"testing"

	"parblast/internal/mpi"
	"parblast/internal/simtime"
	"parblast/internal/vfs"
)

func testCost() simtime.CostModel {
	return simtime.CostModel{
		NetLatency:       1e-4,
		NetBandwidth:     100e6,
		SearchUnitCost:   1e-8,
		FormatByteCost:   1e-8,
		MergeItemCost:    1e-4,
		MemCopyBandwidth: 1e9,
	}
}

// contiguousView is the common special case: one extent.
func contiguousView(off, length int64) View {
	return View{Segments: []Segment{{Offset: off, Length: length}}}
}

func TestViewValidate(t *testing.T) {
	good := View{Segments: []Segment{{0, 10}, {10, 5}, {100, 1}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.TotalLength() != 16 {
		t.Fatalf("total = %d", good.TotalLength())
	}
	overlap := View{Segments: []Segment{{0, 10}, {5, 10}}}
	if err := overlap.Validate(); err == nil {
		t.Fatal("overlapping view accepted")
	}
	unsorted := View{Segments: []Segment{{10, 5}, {0, 5}}}
	if err := unsorted.Validate(); err == nil {
		t.Fatal("unsorted view accepted")
	}
	negative := View{Segments: []Segment{{-1, 5}}}
	if err := negative.Validate(); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestIndependentReadWrite(t *testing.T) {
	fs := vfs.MustNew(vfs.RAMDisk())
	fs.WriteFile("db", []byte("0123456789abcdef"))
	_, err := mpi.Run(2, testCost(), func(r *mpi.Rank) error {
		f, err := Open(r, fs, "db")
		if err != nil {
			return err
		}
		// Each rank reads its half.
		off := int64(r.ID() * 8)
		data := f.ReadAt(off, 8)
		want := "0123456789abcdef"[off : off+8]
		if string(data) != want {
			return fmt.Errorf("rank %d read %q, want %q", r.ID(), data, want)
		}
		if f.Size() != 16 {
			return fmt.Errorf("size = %d", f.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpenMissing(t *testing.T) {
	fs := vfs.MustNew(vfs.RAMDisk())
	_, err := mpi.Run(1, testCost(), func(r *mpi.Rank) error {
		if _, err := Open(r, fs, "nope"); err == nil {
			return fmt.Errorf("open of missing file succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// interleavedExpected builds the file contents that rank-interleaved views
// should produce: rank k owns records k, k+n, k+2n, ... of size recSize.
func interleavedViews(n int, records, recSize int) ([]View, [][]byte, []byte) {
	views := make([]View, n)
	datas := make([][]byte, n)
	total := make([]byte, records*recSize)
	for rec := 0; rec < records; rec++ {
		owner := rec % n
		payload := bytes.Repeat([]byte{byte('A' + rec%26)}, recSize)
		views[owner].Segments = append(views[owner].Segments,
			Segment{Offset: int64(rec * recSize), Length: int64(recSize)})
		datas[owner] = append(datas[owner], payload...)
		copy(total[rec*recSize:], payload)
	}
	return views, datas, total
}

func TestWriteCollectiveMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		for _, profile := range []vfs.Profile{vfs.XFSLike(), vfs.NFSLike()} {
			fs := vfs.MustNew(profile)
			views, datas, want := interleavedViews(n, 23, 17)
			_, err := mpi.Run(n, testCost(), func(r *mpi.Rank) error {
				f := OpenOrCreate(r, fs, "out")
				if err := f.SetView(views[r.ID()]); err != nil {
					return err
				}
				return f.WriteCollective(datas[r.ID()])
			})
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, profile.Name, err)
			}
			got, err := fs.ReadFile("out")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d %s: collective write produced wrong bytes (%d vs %d)",
					n, profile.Name, len(got), len(want))
			}
		}
	}
}

func TestWriteIndependentMatchesSerial(t *testing.T) {
	n := 4
	fs := vfs.MustNew(vfs.XFSLike())
	views, datas, want := interleavedViews(n, 20, 11)
	_, err := mpi.Run(n, testCost(), func(r *mpi.Rank) error {
		f := OpenOrCreate(r, fs, "out")
		if err := f.SetView(views[r.ID()]); err != nil {
			return err
		}
		return f.WriteIndependent(datas[r.ID()])
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("out")
	if !bytes.Equal(got, want) {
		t.Fatal("independent write produced wrong bytes")
	}
}

func TestWriteCollectiveWithHoles(t *testing.T) {
	// Views that do not tile the file: the hole must stay zero.
	fs := vfs.MustNew(vfs.XFSLike())
	_, err := mpi.Run(2, testCost(), func(r *mpi.Rank) error {
		f := OpenOrCreate(r, fs, "holes")
		if r.ID() == 0 {
			if err := f.SetView(contiguousView(0, 4)); err != nil {
				return err
			}
			return f.WriteCollective([]byte("AAAA"))
		}
		if err := f.SetView(contiguousView(10, 4)); err != nil {
			return err
		}
		return f.WriteCollective([]byte("BBBB"))
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("holes")
	want := append([]byte("AAAA"), make([]byte, 6)...)
	want = append(want, []byte("BBBB")...)
	if !bytes.Equal(got, want) {
		t.Fatalf("holes corrupted: %q", got)
	}
}

func TestWriteCollectiveEmptyParticipants(t *testing.T) {
	// Ranks with empty views (the pioBLAST master) must participate
	// without contributing.
	fs := vfs.MustNew(vfs.XFSLike())
	_, err := mpi.Run(3, testCost(), func(r *mpi.Rank) error {
		f := OpenOrCreate(r, fs, "o")
		if r.ID() == 0 {
			return f.WriteCollective(nil) // empty view
		}
		off := int64((r.ID() - 1) * 3)
		if err := f.SetView(contiguousView(off, 3)); err != nil {
			return err
		}
		return f.WriteCollective([]byte{byte('0' + r.ID()), byte('0' + r.ID()), byte('0' + r.ID())})
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("o")
	if string(got) != "111222" {
		t.Fatalf("got %q", got)
	}
}

func TestWriteCollectiveAllEmpty(t *testing.T) {
	fs := vfs.MustNew(vfs.XFSLike())
	_, err := mpi.Run(2, testCost(), func(r *mpi.Rank) error {
		f := OpenOrCreate(r, fs, "o")
		return f.WriteCollective(nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.ReadFile("o"); len(got) != 0 {
		t.Fatalf("file should be empty, got %d bytes", len(got))
	}
}

func TestWriteLengthMismatch(t *testing.T) {
	fs := vfs.MustNew(vfs.RAMDisk())
	_, err := mpi.Run(1, testCost(), func(r *mpi.Rank) error {
		f := OpenOrCreate(r, fs, "o")
		if err := f.SetView(contiguousView(0, 10)); err != nil {
			return err
		}
		if err := f.WriteCollective([]byte("short")); err == nil {
			return fmt.Errorf("length mismatch accepted (collective)")
		}
		if err := f.WriteIndependent([]byte("short")); err == nil {
			return fmt.Errorf("length mismatch accepted (independent)")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveFasterThanIndependentOnNFS(t *testing.T) {
	// The paper's §3.3 claim: shuffling scattered records into large
	// sequential writes beats many small strided writes, dramatically so
	// on a serializing file system.
	n := 8
	records, recSize := 400, 257
	views, datas, _ := interleavedViews(n, records, recSize)

	runWith := func(collective bool) float64 {
		fs := vfs.MustNew(vfs.NFSLike())
		clocks, err := mpi.Run(n, testCost(), func(r *mpi.Rank) error {
			f := OpenOrCreate(r, fs, "out")
			if err := f.SetView(views[r.ID()]); err != nil {
				return err
			}
			if collective {
				return f.WriteCollective(datas[r.ID()])
			}
			err := f.WriteIndependent(datas[r.ID()])
			r.Barrier()
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for _, c := range clocks {
			if c.Now() > worst {
				worst = c.Now()
			}
		}
		return worst
	}
	tColl := runWith(true)
	tInd := runWith(false)
	if tColl >= tInd {
		t.Fatalf("collective (%.3fs) not faster than independent (%.3fs)", tColl, tInd)
	}
	if tInd/tColl < 3 {
		t.Fatalf("expected a large gap on NFS, got only %.1fx", tInd/tColl)
	}
}

func TestCollectiveDeterministicTiming(t *testing.T) {
	n := 4
	views, datas, _ := interleavedViews(n, 50, 31)
	run := func() []float64 {
		fs := vfs.MustNew(vfs.XFSLike())
		clocks, err := mpi.Run(n, testCost(), func(r *mpi.Rank) error {
			f := OpenOrCreate(r, fs, "out")
			if err := f.SetView(views[r.ID()]); err != nil {
				return err
			}
			return f.WriteCollective(datas[r.ID()])
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
	a := run()
	b := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d timing differs across runs: %g vs %g", i, a[i], b[i])
		}
	}
}

// TestWriteCollectiveSkipsEmptyShuffleMessages: with each rank's view
// exactly tiling its own aggregator domain, no shuffle data needs to move —
// and no zero-byte messages may be exchanged either (they used to go to
// every aggregator, paying latency and message count for nothing).
func TestWriteCollectiveSkipsEmptyShuffleMessages(t *testing.T) {
	const n = 3
	fs := vfs.MustNew(vfs.XFSLike()) // 32 channels: every rank aggregates
	_, sent, err := mpi.RunConfig(n, mpi.Config{Cost: testCost()}, func(r *mpi.Rank) error {
		f := OpenOrCreate(r, fs, "aligned")
		off := int64(r.ID() * 4)
		if err := f.SetView(contiguousView(off, 4)); err != nil {
			return err
		}
		payload := bytes.Repeat([]byte{byte('a' + r.ID())}, 4)
		return f.WriteCollective(payload)
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("aligned")
	if string(got) != "aaaabbbbcccc" {
		t.Fatalf("file = %q", got)
	}
	total := mpi.TotalTraffic(sent)
	shuffle, messages := total.Shuffle, total.Messages
	if shuffle != 0 {
		t.Fatalf("aligned views shuffled %d bytes, want 0", shuffle)
	}
	// Only the collectives remain: one AllGather and one Barrier entry per
	// rank. Zero-byte point-to-point messages would inflate this.
	if want := int64(2 * n); messages != want {
		t.Fatalf("message count = %d, want %d (zero-byte shuffle messages not skipped?)", messages, want)
	}
}
