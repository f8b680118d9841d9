package engine

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"parblast/internal/blast"
	"parblast/internal/seq"
)

func TestCodecPrimitivesRoundTrip(t *testing.T) {
	var w Writer
	w.Int(-42)
	w.Int(0)
	w.Int(1 << 40)
	w.Uint(7)
	w.Bool(true)
	w.Bool(false)
	w.Float(3.14159)
	w.Float(math.Inf(1))
	w.String("hello world")
	w.String("")
	w.Blob([]byte{1, 2, 3})
	w.Blob(nil)

	r := NewReader(w.Bytes())
	if r.Int() != -42 || r.Int() != 0 || r.Int() != 1<<40 {
		t.Fatal("int round trip failed")
	}
	if r.Uint() != 7 {
		t.Fatal("uint round trip failed")
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bool round trip failed")
	}
	if r.Float() != 3.14159 || !math.IsInf(r.Float(), 1) {
		t.Fatal("float round trip failed")
	}
	if r.String() != "hello world" || r.String() != "" {
		t.Fatal("string round trip failed")
	}
	if !bytes.Equal(r.Blob(), []byte{1, 2, 3}) || len(r.Blob()) != 0 {
		t.Fatal("blob round trip failed")
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestCodecTruncation(t *testing.T) {
	var w Writer
	w.String("a long enough string")
	batch := serveBatchMsg{Seq: 3, Queries: EncodeWireQueries(WireQueries{
		Kind: seq.Protein, IDs: []string{"q1"}, Descriptions: []string{"d"}, Residues: [][]byte{{1, 2, 3}},
	})}
	// What decodes must encode back to the bytes it came from: the round trip.
	decodeBatch := func(data []byte) error {
		m, err := decodeServeBatchMsg(data)
		if err == nil && !bytes.Equal(m.encode(), data) {
			t.Errorf("serve batch %+v does not encode back to its %d input bytes", m, len(data))
		}
		return err
	}
	cases := []struct {
		name   string
		data   []byte
		decode func([]byte) error
	}{
		{"string", w.Bytes(), func(data []byte) error {
			r := NewReader(data)
			_ = r.String()
			return r.Err()
		}},
		{"skipped blob", func() []byte {
			var w Writer
			w.Blob([]byte("passed over"))
			w.Blob([]byte("read"))
			return w.Bytes()
		}(), func(data []byte) error {
			r := NewReader(data)
			r.SkipBlob()
			if got := r.Blob(); r.Err() == nil && string(got) != "read" {
				t.Errorf("after a skip the next blob reads %q", got)
			}
			return r.Err()
		}},
		{"serve batch", batch.encode(), decodeBatch},
		{"serve sentinel", serveBatchMsg{Seq: -1}.encode(), decodeBatch},
	}
	for _, c := range cases {
		if err := c.decode(c.data); err != nil {
			t.Fatalf("%s: whole payload rejected: %v", c.name, err)
		}
		for cut := 0; cut < len(c.data); cut++ {
			if c.decode(c.data[:cut]) == nil {
				t.Fatalf("%s: truncation at %d undetected", c.name, cut)
			}
		}
	}
	// Reads after an error return zero values, never panic.
	r := NewReader(nil)
	_ = r.Int()
	if r.Err() == nil {
		t.Fatal("empty input accepted")
	}
	r.SkipBlob()
	if r.Uint() != 0 || r.Float() != 0 || r.String() != "" || r.Blob() != nil {
		t.Fatal("post-error reads not zero")
	}
}

func TestQueryMetaCodecRoundTrip(t *testing.T) {
	in := QueryMeta{
		QueryIndex: 7,
		Fragment:   3,
		Work:       blast.WorkCounters{ResiduesScanned: 100, GappedCells: 5000, IndexWords: 42},
		Hits: []HitMeta{
			{OID: 1, Worker: 2, ID: "s1", Defline: "d one", SubjLen: 300, Score: 99,
				BitScore: 44.4, EValue: 1e-9, NumHSPs: 2, BlockSize: 1234},
			{OID: 5, Worker: 2, ID: "s5", Defline: "", SubjLen: 50, Score: 20,
				BitScore: 12.1, EValue: 3.3, NumHSPs: 1, BlockSize: 200},
		},
	}
	var w Writer
	EncodeQueryMeta(&w, in)
	r := NewReader(w.Bytes())
	out := DecodeQueryMeta(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if out.QueryIndex != in.QueryIndex || out.Fragment != in.Fragment || out.Work != in.Work {
		t.Fatalf("meta fields differ: %+v", out)
	}
	if len(out.Hits) != 2 || out.Hits[0] != in.Hits[0] || out.Hits[1] != in.Hits[1] {
		t.Fatalf("hits differ: %+v", out.Hits)
	}
}

func TestWireHitCodecRoundTrip(t *testing.T) {
	in := WireHit{
		OID: 9, ID: "subj", Defline: "a subject", SubjLen: 120,
		Residues: []byte{0, 5, 19, 3},
		HSPs: []WireHSP{
			{QueryFrom: 1, QueryTo: 50, SubjFrom: 2, SubjTo: 51, Score: 77,
				BitScore: 33.2, EValue: 2e-6, Trace: []byte{0, 0, 1, 2, 0}},
		},
	}
	var w Writer
	EncodeWireHit(&w, in)
	r := NewReader(w.Bytes())
	out := DecodeWireHit(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if out.OID != in.OID || out.ID != in.ID || !bytes.Equal(out.Residues, in.Residues) {
		t.Fatalf("hit differs: %+v", out)
	}
	if len(out.HSPs) != 1 || !bytes.Equal(out.HSPs[0].Trace, in.HSPs[0].Trace) ||
		out.HSPs[0].Score != 77 {
		t.Fatalf("hsp differs: %+v", out.HSPs)
	}
}

func TestCodecQuickRoundTrip(t *testing.T) {
	f := func(oid int32, id, defline string, score int32, ev float64, block int64) bool {
		in := HitMeta{
			OID: int(oid), Worker: 1, ID: id, Defline: defline,
			Score: int(score), EValue: ev, BlockSize: block,
		}
		var w Writer
		EncodeHitMeta(&w, in)
		r := NewReader(w.Bytes())
		out := DecodeHitMeta(r)
		if r.Err() != nil {
			return false
		}
		// NaN never compares equal; normalize.
		if math.IsNaN(ev) {
			return math.IsNaN(out.EValue)
		}
		return out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIntCodec(t *testing.T) {
	for _, v := range []int{0, -1, 1, 1 << 30, -(1 << 30)} {
		got, err := DecodeInt(EncodeInt(v))
		if err != nil || got != v {
			t.Fatalf("int codec %d → %d (%v)", v, got, err)
		}
	}
	if _, err := DecodeInt(nil); err == nil {
		t.Fatal("empty decode accepted")
	}
}

func TestWireQueriesCodecRoundTrip(t *testing.T) {
	in := WireQueries{
		Kind:         seq.Protein,
		IDs:          []string{"q1", "q2", ""},
		Descriptions: []string{"first query", "", "third"},
		Residues:     [][]byte{{1, 2, 3}, {}, {19, 0, 7, 7}},
	}
	out, err := DecodeWireQueries(EncodeWireQueries(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.IDs) != len(in.IDs) || out.Kind != in.Kind {
		t.Fatalf("shape mismatch: %+v", out)
	}
	for i := range in.IDs {
		if out.IDs[i] != in.IDs[i] || out.Descriptions[i] != in.Descriptions[i] ||
			!bytes.Equal(out.Residues[i], in.Residues[i]) {
			t.Fatalf("query %d mismatch: %+v", i, out)
		}
	}
	if _, err := DecodeWireQueries([]byte{0xff}); err == nil {
		t.Fatal("truncated payload accepted")
	}
}
