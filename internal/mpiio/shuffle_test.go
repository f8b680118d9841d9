package mpiio

import (
	"bytes"
	"fmt"
	"testing"

	"parblast/internal/mpi"
	"parblast/internal/vfs"
)

// shufflePayloadsRef is the shuffle encoder as it stood before messages were
// sized first: a make, a copy and an append for every piece. It is kept as
// the reference of the record layout aggregators decode.
func shufflePayloadsRef(f *File, plan collPlan, data []byte) [][]byte {
	myPieces := make([][]byte, plan.numAgg)
	var dataPos int64
	f.splitView(plan, func(a int, off, length int64) {
		rec := make([]byte, 16+length)
		le.PutUint64(rec[0:], uint64(off))
		le.PutUint64(rec[8:], uint64(length))
		copy(rec[16:], data[dataPos:dataPos+length])
		dataPos += length
		myPieces[a] = append(myPieces[a], rec...)
	})
	return myPieces
}

// stridedViews gives each of n ranks segs segments of segLen bytes,
// interleaved round robin; with holes, a one-byte gap follows every third
// round, so an aggregator's domain holds several runs.
func stridedViews(n, segs int, segLen int64, holes bool) ([]View, [][]byte) {
	views := make([]View, n)
	datas := make([][]byte, n)
	var off int64
	for s := 0; s < segs; s++ {
		for k := 0; k < n; k++ {
			views[k].Segments = append(views[k].Segments, Segment{Offset: off, Length: segLen})
			for i := int64(0); i < segLen; i++ {
				datas[k] = append(datas[k], byte(off+i))
			}
			off += segLen
			if holes && s%3 == 2 {
				off++
			}
		}
	}
	return views, datas
}

// TestShufflePayloadsMatchRecordLayout: every rank ships each aggregator the
// bytes the per-piece reference encoder produces, for views of 8 and of 512
// segments, with aggregator domains that split segments.
func TestShufflePayloadsMatchRecordLayout(t *testing.T) {
	const n = 4
	for _, segs := range []int{8, 512} {
		for _, cb := range []int{1, 3, 4} {
			views, datas := stridedViews(n, segs, 7, true)
			fs := vfs.MustNew(vfs.XFSLike())
			_, err := mpi.Run(n, testCost(), func(r *mpi.Rank) error {
				f := OpenOrCreate(r, fs, "out")
				if err := f.SetView(views[r.ID()]); err != nil {
					return err
				}
				plan := f.planCollective()
				plan.chooseAggregators(fs.Profile().Channels, Hints{CbNodes: cb})
				got, want := f.shufflePayloads(plan, datas[r.ID()]), shufflePayloadsRef(f, plan, datas[r.ID()])
				for a := range want {
					if !bytes.Equal(got[a], want[a]) {
						return fmt.Errorf("rank %d → aggregator %d: %d payload bytes, reference %d", r.ID(), a, len(got[a]), len(want[a]))
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%d segments, cb_nodes %d: %v", segs, cb, err)
			}
		}
	}
}

// TestWriteCollectiveAllocatesPerAggregator: a collective write of 512 view
// segments a rank allocates as often as one of 8 segments carrying the same
// bytes — the shuffle messages, the span lists and the coalesced runs are
// allocated once per aggregator, not once per piece. The slack of one
// allocation per aggregator absorbs a stray runtime allocation in the
// average; a per-piece allocation adds thousands.
func TestWriteCollectiveAllocatesPerAggregator(t *testing.T) {
	const n, aggs, bytesPerRank = 4, 2, 4096
	allocs := func(segs int) float64 {
		views, datas := stridedViews(n, segs, bytesPerRank/int64(segs), false)
		return testing.AllocsPerRun(20, func() {
			fs := vfs.MustNew(vfs.XFSLike())
			_, err := mpi.Run(n, testCost(), func(r *mpi.Rank) error {
				f := OpenOrCreate(r, fs, "out")
				if err := f.SetHints(Hints{CbNodes: aggs}); err != nil {
					return err
				}
				if err := f.SetView(views[r.ID()]); err != nil {
					return err
				}
				return f.WriteCollective(datas[r.ID()])
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(8), allocs(512)
	t.Logf("8 segments: %.0f allocations, 512: %.0f", few, many)
	if many-few > aggs {
		t.Errorf("512 segments a rank allocate %.0f more times than 8 (%.0f vs %.0f); want at most %d more", many-few, many, few, aggs)
	}
}
