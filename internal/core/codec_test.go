package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"parblast/internal/engine"
	"parblast/internal/mpiio"
	"parblast/internal/wiretest"
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
	decode := func(data []byte) (m jobMeta, err error) {
		c := engine.Decoder(data)
		err = m.code(&c).Err()
		return m, err
	}
	for _, in := range []jobMeta{full, serve, {}} {
		data := in.encode()
		got, err := decode(data)
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if !bytes.Equal(got.encode(), data) {
			t.Fatalf("round trip changed the encoding of %+v: got %+v", in, got)
		}
		for cut := 0; cut < len(data); cut++ {
			if _, err := decode(data[:cut]); err == nil {
				t.Fatalf("truncation at %d of %d undetected", cut, len(data))
			}
		}
	}
	if got, _ := decode(full.encode()); !reflect.DeepEqual(got, full) {
		t.Fatalf("round trip changed the value:\n got %+v\nwant %+v", got, full)
	}
	// Empty queries, NumSeqs 0, TotalLen 0, then 2^62 parts and no bytes.
	hostile := []byte{0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}
	if _, err := decode(hostile); err == nil {
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

// TestBatchMetasDecodeSharesOneString: decoding a worker's submission costs
// the same number of allocations whatever the hit count — one string copy of
// the message that every ID and defline shares, the per-query slices — not
// two strings per hit. The decoded strings are the encoded ones.
func TestBatchMetasDecodeSharesOneString(t *testing.T) {
	bundle := func(hitsPerQuery int) []byte {
		bm := batchMetas{FirstQuery: 4}
		for q := 4; q < 7; q++ {
			qm := engine.QueryMeta{QueryIndex: q}
			for h := range hitsPerQuery {
				qm.Hits = append(qm.Hits, engine.HitMeta{OID: 100*q + h, Worker: 3, ID: fmt.Sprintf("nr|%d", h),
					Defline: fmt.Sprintf("nr|%d synthetic family member %d", h, q), Score: h, BlockSize: 700})
			}
			bm.PerQuery = append(bm.PerQuery, qm)
		}
		return bm.encode()
	}
	data := bundle(2)
	var back batchMetas
	c := engine.Decoder(data)
	if err := back.code(&c).Err(); err != nil || !bytes.Equal(back.encode(), data) || back.PerQuery[2].Hits[1].Defline != "nr|1 synthetic family member 6" {
		t.Fatalf("round trip: err %v, %+v", err, back)
	}
	allocs := func(hitsPerQuery int) float64 {
		data := bundle(hitsPerQuery)
		return testing.AllocsPerRun(20, func() {
			var bm batchMetas
			c := engine.Decoder(data)
			if err := bm.code(&c).Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(100); many != few {
		t.Fatalf("decoding 300 hits allocates %v times, 30 hits %v: strings are being copied one by one", many, few)
	}
}

// wireBytes encodes a sample of a layout that has no type of its own.
func wireBytes(v goSample) []byte {
	return goMsg{Done: v.done, Extras: v.extras, Alive: v.alive}.encode()
}

// codeLayout adapts a layout whose code fills a *T.
func codeLayout[T any](name string, sample T, code func(*T, *engine.Codec) *engine.Codec) wiretest.Layout {
	enc := func(v *T) []byte { return code(v, new(engine.Codec)).Bytes() }
	return wiretest.Layout{Name: name, Sample: enc(&sample), Decode: func(data []byte) (any, []byte, error) {
		var v T
		c := engine.Decoder(data)
		err := code(&v, &c).Err()
		return v, enc(&v), err
	}}
}

// FuzzWire hardens every wire layout of this package against corrupt or
// malicious payloads (wiretest.Check has the rules). The selection bundle is
// read as worker 1 sees it.
func FuzzWire(f *testing.F) {
	sel := selection{Queries: []int{0, 1}, OIDs: []int{4, 9}, Offsets: []int64{0, 120}, Lengths: []int64{120, 33}}
	wiretest.Fuzz(f, []wiretest.Layout{
		codeLayout("job meta", jobMeta{Queries: []byte{1}, NumSeqs: 3, Parts: [][]wireExtent{{{VolBase: "nr", To: 3, SeqLen: 90}}}, Tree: true, TreeFanout: 2}, (*jobMeta).code),
		codeLayout("batch metas", batchMetas{FirstQuery: 1, PerQuery: []engine.QueryMeta{{QueryIndex: 1, Hits: []engine.HitMeta{{OID: 4, ID: "s4"}}}}}, (*batchMetas).code),
		codeLayout("selection", sel, (*selection).code),
		codeLayout("go", goMsg{Done: true, Extras: []int{3}, Alive: []int{1, 2}}, (*goMsg).code),
		{Name: "selection bundle", Sample: encodeSelectionBundle(true, []selection{{}, sel, {}}, []int{2, 1}), Decode: func(data []byte) (any, []byte, error) {
			s, ok, err := decodeSelectionBundle(data, 1)
			return []any{s, ok}, encodeSelectionBundle(ok, []selection{{}, s}, []int{1}), err
		}},
	})
}
