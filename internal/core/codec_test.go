package core

import (
	"bytes"
	"reflect"
	"testing"

	"parblast/internal/mpiio"
)

// TestJobMetaCodec: the job broadcast round-trips, and every strict prefix of
// it — and a count with nothing behind it — is an error, never a panic or an
// allocation sized by the count.
func TestJobMetaCodec(t *testing.T) {
	full := jobMeta{
		Queries: []byte{1, 2, 3}, NumSeqs: 400, TotalLen: 1 << 33,
		Parts: [][]wireExtent{
			{{VolBase: "nr.00", From: 0, To: 7, OIDFrom: 0, HdrOff: 0, HdrLen: 90, SeqOff: 1, SeqLen: 800, HdrArrayPos: 32, SeqArrayPos: 3240}},
			{{VolBase: "nr.00", From: 7, To: 9, OIDFrom: 7, HdrOff: 90, HdrLen: 20, SeqOff: 801, SeqLen: 100, HdrArrayPos: 88, SeqArrayPos: 3296},
				{VolBase: "nr.01", From: 0, To: 4, OIDFrom: 9, HdrLen: 55, SeqOff: 1, SeqLen: 300, HdrArrayPos: 32, SeqArrayPos: 72}},
		},
		OutputPath: "results.out", EarlyPrune: true, Dynamic: true, Prefetch: 2, QueryBatch: 3,
		MemBudget: 6 << 10, FT: true, Tree: true, TreeFanout: 4,
		IOHints: mpiio.Hints{CbNodes: 2, CbBufferSize: 1 << 20, SieveGap: 512, ReadStrategy: mpiio.StrategyListIO},
	}
	serve := jobMeta{NumSeqs: 1, TotalLen: 40, Parts: [][]wireExtent{{{VolBase: "nr", To: 1}}},
		OutputPath: "o", Independent: true, Collective: true, QueryBatch: 1, Serve: true}
	for _, in := range []jobMeta{full, serve, {}} {
		data := in.encode()
		got, err := decodeJobMeta(data)
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if !bytes.Equal(got.encode(), data) {
			t.Fatalf("round trip changed the encoding of %+v: got %+v", in, got)
		}
		for cut := 0; cut < len(data); cut++ {
			if _, err := decodeJobMeta(data[:cut]); err == nil {
				t.Fatalf("truncation at %d of %d undetected", cut, len(data))
			}
		}
	}
	if got, _ := decodeJobMeta(full.encode()); !reflect.DeepEqual(got, full) {
		t.Fatalf("round trip changed the value:\n got %+v\nwant %+v", got, full)
	}
	// Empty queries, NumSeqs 0, TotalLen 0, then 2^62 parts and no bytes.
	hostile := []byte{0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}
	if _, err := decodeJobMeta(hostile); err == nil {
		t.Fatal("a part count with no parts behind it was accepted")
	}
}

// TestSelectionBundleSkipsWithoutCopying: every worker finds its own selection
// in the layout broadcast, a truncated bundle is an error, and what a worker
// allocates does not depend on how many other workers' selections it passes
// over on the way — n workers would otherwise make n²/2 copies per batch.
func TestSelectionBundleSkipsWithoutCopying(t *testing.T) {
	bundle := func(workers int) ([]byte, []selection) {
		sel := make([]selection, workers+1)
		alive := make([]int, 0, workers)
		for w := 1; w <= workers; w++ {
			alive = append(alive, w)
			sel[w] = selection{Queries: []int{0, 1}, OIDs: []int{w, 2 * w}, Offsets: []int64{int64(100 * w), int64(100*w + 40)}, Lengths: []int64{40, 60}}
		}
		return encodeSelectionBundle(true, sel, alive), sel
	}
	data, sel := bundle(5)
	for w := 1; w <= 5; w++ {
		got, ok, err := decodeSelectionBundle(data, w)
		if err != nil || !ok || !reflect.DeepEqual(got, sel[w]) {
			t.Fatalf("worker %d: got %+v ok=%v err=%v, want %+v", w, got, ok, err, sel[w])
		}
	}
	if _, _, err := decodeSelectionBundle(data, 6); err == nil {
		t.Fatal("a worker the bundle does not name was served")
	}
	for cut := 0; cut < len(data); cut++ {
		if _, _, err := decodeSelectionBundle(data[:cut], 5); err == nil {
			t.Fatalf("truncation at %d of %d undetected", cut, len(data))
		}
	}
	if _, ok, err := decodeSelectionBundle(encodeSelectionBundle(false, nil, nil), 1); ok || err != nil {
		t.Fatalf("abort marker: ok=%v err=%v", ok, err)
	}
	allocs := func(workers int) float64 {
		data, _ := bundle(workers)
		return testing.AllocsPerRun(20, func() {
			if _, _, err := decodeSelectionBundle(data, workers); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(2), allocs(200); many != few {
		t.Fatalf("the last of 200 workers allocates %v times, the last of 2 %v: skipped selections are being copied", many, few)
	}
}
