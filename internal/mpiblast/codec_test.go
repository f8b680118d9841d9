package mpiblast

import (
	"reflect"
	"testing"

	"parblast/internal/blast"
	"parblast/internal/engine"
	"parblast/internal/wiretest"
)

// TestJobMetaCodec: the job broadcast round-trips, and every strict prefix of
// it — and a count with nothing behind it — is an error, never a panic or an
// allocation sized by the count.
func TestJobMetaCodec(t *testing.T) {
	full := jobMeta{Queries: []byte{1, 2, 3}, NumSeqs: 400, TotalLen: 1 << 33,
		FragBases: []string{"nr.frag000", "nr.frag001"}, Tree: true, TreeFanout: 4}
	serve := jobMeta{Queries: []byte{}, NumSeqs: 1, TotalLen: 40, FragBases: []string{"nr.frag000"}, Serve: true}
	decode := func(data []byte) (m jobMeta, err error) {
		c := engine.Decoder(data)
		err = m.code(&c).Err()
		return m, err
	}
	for _, in := range []jobMeta{full, serve} {
		data := in.encode()
		got, err := decode(data)
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if !reflect.DeepEqual(got, in) {
			t.Fatalf("round trip changed the value:\n got %+v\nwant %+v", got, in)
		}
		for cut := 0; cut < len(data); cut++ {
			if _, err := decode(data[:cut]); err == nil {
				t.Fatalf("truncation at %d of %d undetected", cut, len(data))
			}
		}
	}
	// Empty queries, NumSeqs 0, TotalLen 0, then 2^62 fragments and no bytes.
	hostile := []byte{0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}
	if _, err := decode(hostile); err == nil {
		t.Fatal("a fragment count with no fragments behind it was accepted")
	}
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
// malicious payloads (wiretest.Check has the rules).
func FuzzWire(f *testing.F) {
	hit := engine.WireHit{OID: 9, ID: "s9", HSPs: []engine.WireHSP{{Score: 7, EValue: 0.5, Trace: []byte{0, 1}}}}
	wiretest.Fuzz(f, []wiretest.Layout{
		codeLayout("job meta", jobMeta{Queries: []byte{1}, NumSeqs: 3, FragBases: []string{"nr.frag000"}, Tree: true, TreeFanout: 2}, (*jobMeta).code),
		codeLayout("results", resultsMsg{Query: 1, Fragment: 2, Worker: 3, Hits: []engine.WireHit{hit}}, (*resultsMsg).code),
		codeLayout("fetch key", fetchKey{Query: 1, OID: 9}, (*fetchKey).code),
		codeLayout("tree results", treeResults{Work: make([]blast.WorkCounters, 2), Hits: [][]treeHit{{{Worker: 2, Hit: hit}}, nil}}, (*treeResults).code),
		codeLayout("assignment", -1, func(v *int, c *engine.Codec) *engine.Codec { c.Int(v); return c }),
	})
}
