package core

import (
	"encoding/hex"
	"testing"

	"parblast/internal/blast"
	"parblast/internal/engine"
	"parblast/internal/mpiio"
)

// goSample is the go message's content, for TestWireBytesPinned.
type goSample struct {
	done   bool
	extras []int
}

// TestWireBytesPinned pins one sample of every wire layout this package owns
// to its encoding, byte for byte. A message's length is charged to the
// virtual clocks, so a codec change that moves a byte is a model change; a
// refactor of the codec must leave this table passing unedited.
func TestWireBytesPinned(t *testing.T) {
	meta := jobMeta{
		Queries: []byte{1, 2, 3}, NumSeqs: 400, TotalLen: 1 << 33,
		Parts: [][]wireExtent{
			{{VolBase: "nr.00", From: 0, To: 7, OIDFrom: 0, HdrOff: 0, HdrLen: 90, SeqOff: 1, SeqLen: 800, HdrArrayPos: 32, SeqArrayPos: 3240}},
			{},
			{{VolBase: "nr.01", From: 0, To: 4, OIDFrom: 9, HdrLen: 55, SeqOff: 1, SeqLen: 300, HdrArrayPos: 32, SeqArrayPos: 72}},
		},
		OutputPath: "results.out", EarlyPrune: true, Dynamic: true, Prefetch: 2, QueryBatch: 3,
		MemBudget: 6 << 10, FT: true, Tree: true, TreeFanout: 4,
		IOHints: mpiio.Hints{CbNodes: 2, CbBufferSize: 1 << 20, SieveGap: 512, ReadStrategy: mpiio.StrategyListIO},
	}
	metas := batchMetas{FirstQuery: 3, PerQuery: []engine.QueryMeta{
		{QueryIndex: 3, Fragment: 1, Work: blast.WorkCounters{SeedHits: 9, HSPsFound: 1},
			Hits: []engine.HitMeta{{OID: 11, Worker: 2, ID: "s11", SubjLen: 90, Score: 40, BitScore: 20.5, EValue: 0.25, NumHSPs: 1, BlockSize: 300}}},
		{QueryIndex: 4, Fragment: 1},
	}}
	sel := selection{Queries: []int{0, 3}, OIDs: []int{11, 12}, Offsets: []int64{0, 1 << 35}, Lengths: []int64{300, 41}}
	for _, c := range []struct {
		name string
		data []byte
		hex  string
	}{
		{"job meta", meta.encode(), "03010203a00680808080400301056e722e3030000e0000b40102c00c40d0320001056e722e3031000812006e02d8044090010b726573756c74732e6f75740100010004068060010108048080800180080200"},
		{"serve job meta", (&jobMeta{NumSeqs: 1, TotalLen: 40, OutputPath: "o", Independent: true, Collective: true, QueryBatch: 1, Serve: true}).encode(), "00025000016f000100010002000000000000000001"},
		{"batch metas", metas.encode(), "060206020012000000000002000116040373313100b401500000000000803440000000000000d03f02d804080200000000000000000000"},
		{"selection", sel.encode(), "02001600d804061880808080800252"},
		{"go", wireBytes(goSample{extras: []int{4, 7}}), "0002080e"},
		{"final go", wireBytes(goSample{done: true}), "0100"},
	} {
		if got := hex.EncodeToString(c.data); got != c.hex {
			t.Errorf("%s encodes to\n%s\nwant\n%s", c.name, got, c.hex)
		}
	}
}
