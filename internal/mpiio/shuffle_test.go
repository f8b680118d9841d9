package mpiio

import (
	"bytes"
	"fmt"
	"testing"

	"parblast/internal/mpi"
	"parblast/internal/vfs"
	"parblast/internal/wiretest"
)

// shufflePayloadsRef is the shuffle encoder as it stood before messages were
// sized first: a make, a copy and an append for every piece. It is kept as
// the reference of the record layout aggregators decode, with the encoder's
// signature: payloads[i] goes to aggregator first+i, for every aggregator the
// rank's extent overlaps.
func shufflePayloadsRef(f *File, plan collPlan, data []byte) (first int, payloads [][]byte) {
	self := plan.parts[plan.selfIdx]
	first = -1
	for a := 0; a < plan.numAgg; a++ {
		if plan.overlaps(self.lo, self.hi, a) {
			if first < 0 {
				first = a
			}
			payloads = append(payloads, nil)
		}
	}
	if first < 0 {
		return 0, nil
	}
	var dataPos int64
	f.splitView(plan, func(a int, off, length int64) {
		rec := make([]byte, 16+length)
		le.PutUint64(rec[0:], uint64(off))
		le.PutUint64(rec[8:], uint64(length))
		copy(rec[16:], data[dataPos:dataPos+length])
		dataPos += length
		payloads[a-first] = append(payloads[a-first], rec...)
	})
	return first, payloads
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
				first, got := f.shufflePayloads(plan, datas[r.ID()])
				wantFirst, want := shufflePayloadsRef(f, plan, datas[r.ID()])
				if first != wantFirst || len(got) != len(want) {
					return fmt.Errorf("rank %d: aggregators [%d, +%d), reference [%d, +%d)", r.ID(), first, len(got), wantFirst, len(want))
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						return fmt.Errorf("rank %d → aggregator %d: %d payload bytes, reference %d", r.ID(), first+i, len(got[i]), len(want[i]))
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

// TestShuffleSizedByTouchedAggregators: a rank whose extent lies inside one
// aggregator domain allocates the same count and the same bytes for its
// shuffle messages at 4 aggregators as at 64 — the per-call arrays are sized
// by the aggregators the extent touches, not by cb_nodes.
func TestShuffleSizedByTouchedAggregators(t *testing.T) {
	const ranks, per, self = 64, 96, 37
	parts := make([]bound, ranks)
	for k := range parts {
		parts[k] = bound{rank: k, lo: int64(k * per), hi: int64((k + 1) * per), total: per, segs: 1}
	}
	f := &File{view: View{Segments: []Segment{{Offset: self * per, Length: per}}}}
	data := make([]byte, per)
	cost := func(aggs int) (allocs float64, bytes uint64) {
		p := collPlan{parts: parts, selfIdx: self, numAgg: aggs, gLo: 0, gHi: ranks * per}
		if first, msgs := f.shufflePayloads(p, data); len(msgs) != 1 || len(msgs[0]) != 16+per {
			t.Fatalf("%d aggregators: %d messages from aggregator %d, want one of %d bytes", aggs, len(msgs), first, 16+per)
		}
		const runs = 200
		return testing.AllocsPerRun(runs, func() { f.shufflePayloads(p, data) }),
			wiretest.Allocated(func() {
				for range runs {
					f.shufflePayloads(p, data)
				}
			}) / runs
	}
	fewA, fewB := cost(4)
	manyA, manyB := cost(64)
	t.Logf("4 aggregators: %.0f allocations, %d B; 64: %.0f, %d B", fewA, fewB, manyA, manyB)
	if manyA != fewA || manyB != fewB {
		t.Errorf("64 aggregators cost %.0f allocations and %d B, 4 cost %.0f and %d B; want the same", manyA, manyB, fewA, fewB)
	}
}
