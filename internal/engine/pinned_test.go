package engine

import (
	"encoding/hex"
	"testing"

	"parblast/internal/blast"
	"parblast/internal/seq"
)

// TestWireBytesPinned pins one sample of every wire layout this package owns
// to its encoding, byte for byte. A message's length is charged to the
// virtual clocks, so a codec change that moves a byte is a model change; a
// refactor of the codec must leave this table passing unedited.
func TestWireBytesPinned(t *testing.T) {
	work := blast.WorkCounters{ResiduesScanned: 123456, SeedHits: 789, UngappedExtensions: 64,
		UngappedCells: 4096, GappedExtensions: 3, GappedCells: 70000, TracebackCells: 900, HSPsFound: 2, IndexWords: 17}
	hit := HitMeta{OID: 42, Worker: 3, ID: "gi|42", Defline: "a subject", SubjLen: 310, Score: -7,
		BitScore: 55.5, EValue: 1e-12, NumHSPs: 2, BlockSize: 1 << 33}
	hsp := WireHSP{QueryFrom: 1, QueryTo: 50, SubjFrom: 200, SubjTo: 249, Score: 77,
		BitScore: 33.25, EValue: 2e-6, Trace: []byte{0, 0, 1, 2, 0}}
	queryMeta := QueryMeta{QueryIndex: 5, Fragment: -1, Work: work, Hits: []HitMeta{hit, {OID: 7}}}
	for _, c := range []struct {
		name  string
		value any
		hex   string
	}{
		{"work", work, "80890faa0c8001804006e0c508880e0422"},
		{"hit meta", hit, "54060567697c34320961207375626a656374ec040d0000000000c04b4011ea2d819997713d048080808040"},
		{"query meta", queryMeta, "0a0180890faa0c8001804006e0c508880e04220254060567697c34320961207375626a656374ec040d0000000000c04b4011ea2d819997713d0480808080400e0000000000000000000000000000000000000000000000"},
		{"wire HSP", hsp, "02649003f2039a010000000000a040408dedb5a0f7c6c03e050000010200"},
		{"wire hit", WireHit{OID: 9, ID: "s9", SubjLen: 120, Residues: []byte{0, 5, 19}, HSPs: []WireHSP{hsp, {Score: 1}}}, "1202733900f001030005130202649003f2039a010000000000a040408dedb5a0f7c6c03e05000001020000000000020000000000000000000000000000000000"},
		{"wire hit, no residues", WireHit{OID: 1 << 40, Defline: "d", HSPs: []WireHSP{hsp}}, "80808080804000016400000102649003f2039a010000000000a040408dedb5a0f7c6c03e050000010200"},
		{"wire queries", WireQueries{Kind: seq.Protein, IDs: []string{"q1", ""}, Descriptions: []string{"first", "second"},
			Residues: [][]byte{{1, 2, 3}, {}}}, "00020271310566697273740301020300067365636f6e6400"},
		{"int", -300, "d704"},
		{"query metas", []QueryMeta{queryMeta, {QueryIndex: 6, Fragment: 2}}, "020a0180890faa0c8001804006e0c508880e04220254060567697c34320961207375626a656374ec040d0000000000c04b4011ea2d819997713d0480808080400e00000000000000000000000000000000000000000000000c0400000000000000000000"},
		{"serve batch", serveBatchMsg{Seq: 12, Queries: []byte{9, 8, 7}}, "1803090807"},
		{"serve sentinel", serveBatchMsg{Seq: -1}, "0100"},
	} {
		if got := hex.EncodeToString(wireBytes(c.value)); got != c.hex {
			t.Errorf("%s encodes to\n%s\nwant\n%s", c.name, got, c.hex)
		}
	}
}
