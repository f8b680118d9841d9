package mpiblast

import (
	"encoding/hex"
	"testing"

	"parblast/internal/blast"
	"parblast/internal/engine"
)

// TestWireBytesPinned pins one sample of every wire layout this package owns
// to its encoding, byte for byte. A message's length is charged to the
// virtual clocks, so a codec change that moves a byte is a model change; a
// refactor of the codec must leave this table passing unedited.
func TestWireBytesPinned(t *testing.T) {
	hsp := engine.WireHSP{QueryFrom: 1, QueryTo: 50, SubjFrom: 2, SubjTo: 51, Score: 77, BitScore: 33.25, EValue: 2e-6, Trace: []byte{0, 1, 2}}
	hit := engine.WireHit{OID: 9, ID: "s9", Defline: "nine", SubjLen: 120, HSPs: []engine.WireHSP{hsp}}
	work := blast.WorkCounters{ResiduesScanned: 5000, SeedHits: 80, GappedCells: 1 << 20, HSPsFound: 1}
	results := resultsMsg{Query: 2, Fragment: 5, Worker: 3, Work: work, Hits: []engine.WireHit{hit, {OID: 10, HSPs: []engine.WireHSP{{Score: 3}}}}}
	tree := treeResults{Work: []blast.WorkCounters{work, {}}, Hits: [][]treeHit{{{Worker: 4, Hit: hit}}, nil}}
	for _, c := range []struct {
		name string
		data []byte
		hex  string
	}{
		{"job meta", (&jobMeta{Queries: []byte{1, 2, 3}, NumSeqs: 400, TotalLen: 1 << 33,
			FragBases: []string{"nr.frag000", "nr.frag001"}, Tree: true, TreeFanout: 4}).encode(), "03010203a0068080808040020a6e722e667261673030300a6e722e66726167303031010800"},
		{"serve job meta", (&jobMeta{NumSeqs: 1, TotalLen: 40, FragBases: []string{"nr.frag000"}, Serve: true}).encode(), "000250010a6e722e66726167303030000001"},
		{"results", results.encode(), "040a06904ea001000000808080010002000212027339046e696e65f0010001026404669a010000000000a040408dedb5a0f7c6c03e0300010214000000000100000000060000000000000000000000000000000000"},
		{"fetch key", fetchKey{Query: 7, OID: 1 << 20}.encode(), "0e80808001"},
		{"tree results", tree.encode(), "02904ea00100000080808001000200010812027339046e696e65f0010001026404669a010000000000a040408dedb5a0f7c6c03e0300010200000000000000000000"},
		{"assignment", engine.EncodeInt(6), "0c"},
		{"release", engine.EncodeInt(-1), "01"},
	} {
		if got := hex.EncodeToString(c.data); got != c.hex {
			t.Errorf("%s encodes to\n%s\nwant\n%s", c.name, got, c.hex)
		}
	}
}
