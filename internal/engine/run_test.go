package engine

import (
	"fmt"
	"testing"

	"parblast/internal/blast"
	"parblast/internal/mpi"
	"parblast/internal/seq"
	"parblast/internal/simtime"
	"parblast/internal/workload"
)

// tagBatchDone is the test workers' "batch searched" message to the master.
const tagBatchDone = 901

// TestServeStreamBoundsQueryBank drives the serving stages the way both
// engines do — ServeStream on the master, NextBatch + SearchLoop on the
// workers, SearchThreads clone pools included — and checks the bank's
// release rule: a settled batch's entries are dropped, so the bank peaks at
// one batch and is empty when the stream ends; shed batches build nothing;
// and an entry released with its batch is rebuilt when a later batch brings
// the same residues back.
func TestServeStreamBoundsQueryBank(t *testing.T) {
	const nprocs = 4
	seqs, err := workload.SynthesizeDB(workload.DBConfig{Kind: seq.Protein, NumSeqs: 40, MeanLen: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	frag := &blast.Fragment{}
	for i, s := range seqs {
		frag.Subjects = append(frag.Subjects, blast.Subject{OID: i, ID: s.ID, Residues: s.Residues})
	}
	queries, err := workload.SampleQueries(seqs, workload.QueryConfig{TargetBytes: 900, MeanLen: 80, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The second batch opens with the first query again under another ID:
	// same residues, but its entry went with the first batch, so it must be
	// built a second time.
	const batchSize = 3
	again := &seq.Sequence{ID: "again", Residues: queries[0].Residues, Alpha: queries[0].Alpha}
	queries = append(queries[:batchSize:batchSize], append([]*seq.Sequence{again}, queries[batchSize:]...)...)
	// Arrivals far faster than a batch is served, behind a queue of one:
	// the first two batches are served and the rest of the stream is shed.
	batches, err := workload.Arrivals(queries, workload.ArrivalConfig{Rate: 1e6, BatchMean: batchSize, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	stream := &Stream{Batches: batches, AdmitCap: 1}
	if err := stream.Validate("test", len(queries)); err != nil {
		t.Fatal(err)
	}
	opts := blast.DefaultProteinOptions()
	opts.SearchThreads = 4
	bank, err := blast.NewQueryBank(opts)
	if err != nil {
		t.Fatal(err)
	}

	var stats ServeStats
	steps := 0 // (fragment, query) searches, counted by rank 1 alone
	_, _, err = mpi.RunConfig(nprocs, mpi.Config{Cost: simtime.DefaultCostModel()}, func(r *mpi.Rank) error {
		if r.ID() == 0 {
			return ServeStream(r, stream, bank, &stats, func(b workload.Batch, arrival float64) error {
				for w := 1; w < nprocs; w++ {
					r.Recv(w, tagBatchDone)
				}
				if n := bank.Stats().Entries; n > len(b.Queries) {
					t.Errorf("batch %d: bank holds %d entries for %d queries", b.Seq, n, len(b.Queries))
				}
				return nil
			})
		}
		loop := NewSearchLoop(r, bank, 4800, len(seqs))
		emit := func(int, *blast.QueryResult) {
			if r.ID() == 1 {
				steps++
			}
		}
		for {
			qs, ok, err := NextBatch(r)
			if err != nil || !ok {
				return err
			}
			loop.Begin(qs)
			if err := loop.Search(frag, emit); err != nil {
				return err
			}
			r.Send(0, tagBatchDone, nil)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	shed := make(map[int]bool)
	for _, s := range stats.ShedSeqs {
		shed[s] = true
	}
	var admitted, largest int
	var wantBuilds int64
	for _, b := range batches {
		if shed[b.Seq] {
			continue
		}
		admitted += len(b.Queries)
		largest = max(largest, len(b.Queries))
		distinct := make(map[string]bool)
		for _, q := range b.Queries {
			distinct[string(q.Residues)] = true
		}
		wantBuilds += int64(len(distinct))
	}
	if len(shed) == 0 || shed[0] || shed[1] {
		t.Fatalf("fixture: want batches 0 and 1 served and some shed, got shed %v of %d", stats.ShedSeqs, len(batches))
	}
	st := bank.Stats()
	if st.Entries != 0 {
		t.Errorf("bank holds %d entries after the stream ended", st.Entries)
	}
	if st.PeakEntries > largest {
		t.Errorf("bank peaked at %d entries, largest admitted batch has %d queries", st.PeakEntries, largest)
	}
	if steps != admitted {
		t.Fatalf("rank 1 searched %d (fragment, query) steps, admitted queries %d", steps, admitted)
	}
	lookups := int64((nprocs - 1) * admitted)
	if st.Builds != wantBuilds || st.Reuses != lookups-wantBuilds {
		t.Errorf("bank %+v, want %d builds (distinct queries per admitted batch) and %d reuses", st, wantBuilds, lookups-wantBuilds)
	}
}

// TestLedgerReapHandsBackEveryPart: a reaped worker's parts come back in the
// order it was given them, live workers keep theirs and their rank order,
// a worker reaped once is never asked about again, and the first slice a
// worker is given is kept, not copied.
func TestLedgerReapHandsBackEveryPart(t *testing.T) {
	l := NewLedger(4)
	l.Give(2, StaticShare(10, 4, 2)...) // 1 5 9
	l.Give(2, 11)
	l.Give(3, 2)
	share := []int{7, 8}
	l.Give(4, share...)
	var order []int
	lost := map[int][]int{}
	l.Reap(func(w int) bool { order = append(order, w); return w == 2 || w == 4 },
		func(w int, parts []int) { lost[w] = parts })
	if got := fmt.Sprint(order, l.Alive(), lost); got != "[1 2 3 4] [1 3] map[2:[1 5 9 11] 4:[7 8]]" {
		t.Fatalf("asked, alive, lost = %s", got)
	}
	if &lost[4][0] != &share[0] {
		t.Error("the first slice worker 4 was given was copied")
	}
	order, lost = nil, map[int][]int{}
	l.Reap(func(w int) bool { order = append(order, w); return w == 3 },
		func(w int, parts []int) { lost[w] = parts })
	if got := fmt.Sprint(order, l.Alive(), lost); got != "[1 3] [1] map[3:[2]]" {
		t.Fatalf("second reap: asked, alive, lost = %s", got)
	}
}
