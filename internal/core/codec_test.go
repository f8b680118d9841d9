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
