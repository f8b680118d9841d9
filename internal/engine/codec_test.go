package engine

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"parblast/internal/blast"
	"parblast/internal/seq"
)

// primitives codes one value of every primitive, in a fixed order.
type primitives struct {
	ints   [3]int64
	n      int
	u      uint64
	flags  [2]bool
	floats [2]float64
	strs   [2]string
	blobs  [2][]byte
	list   []int
}

func (p *primitives) code(c *Codec) *Codec {
	for i := range p.ints {
		c.Int64(&p.ints[i])
	}
	c.Int(&p.n)
	c.Uint(&p.u)
	c.Bool(&p.flags[0])
	c.Bool(&p.flags[1])
	c.Float(&p.floats[0])
	c.Float(&p.floats[1])
	c.String(&p.strs[0])
	c.String(&p.strs[1])
	c.Blob(&p.blobs[0])
	c.Blob(&p.blobs[1])
	c.Ints(&p.list)
	return c
}

func TestCodecPrimitivesRoundTrip(t *testing.T) {
	in := primitives{
		ints: [3]int64{-42, 0, 1 << 40}, n: -7, u: 7, flags: [2]bool{true, false},
		floats: [2]float64{3.14159, math.Inf(1)}, strs: [2]string{"hello world", ""},
		blobs: [2][]byte{{1, 2, 3}, nil}, list: []int{5, -1, 1 << 33},
	}
	var out primitives
	c := Decoder(in.code(new(Codec)).Bytes())
	if err := out.code(&c).Err(); err != nil {
		t.Fatal(err)
	}
	if out.ints != in.ints || out.n != in.n || out.u != in.u || out.flags != in.flags ||
		out.floats != in.floats || out.strs != in.strs {
		t.Fatalf("scalars differ: %+v", out)
	}
	if !bytes.Equal(out.blobs[0], in.blobs[0]) || len(out.blobs[1]) != 0 || !slices.Equal(out.list, in.list) {
		t.Fatalf("blobs or list differ: %+v", out)
	}
}

func TestCodecTruncation(t *testing.T) {
	str := "a long enough string"
	batch := serveBatchMsg{Seq: 3, Queries: EncodeWireQueries(WireQueries{
		Kind: seq.Protein, IDs: []string{"q1"}, Descriptions: []string{"d"}, Residues: [][]byte{{1, 2, 3}},
	})}
	// What decodes must encode back to the bytes it came from: the round trip.
	decodeBatch := func(data []byte) error {
		var m serveBatchMsg
		c := Decoder(data)
		err := m.code(&c).Err()
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
		{"string", func() []byte {
			var c Codec
			c.String(&str)
			return c.Bytes()
		}(), func(data []byte) error {
			var s string
			c := Decoder(data)
			c.String(&s)
			return c.Err()
		}},
		{"blobs", func() []byte {
			var c Codec
			for _, s := range []string{"first", "second"} {
				b := []byte(s)
				c.Blob(&b)
			}
			return c.Bytes()
		}(), func(data []byte) error {
			var first, second []byte
			c := Decoder(data)
			c.Blob(&first)
			if c.Blob(&second); c.Err() == nil && (string(first) != "first" || string(second) != "second") {
				t.Errorf("the blobs read %q and %q", first, second)
			}
			return c.Err()
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
	// Reads after an error leave their fields zero, never panic.
	var p primitives
	if c := Decoder(nil); p.code(&c).Err() == nil {
		t.Fatal("empty input accepted")
	}
	if !reflect.DeepEqual(p, primitives{}) {
		t.Fatalf("post-error reads not zero: %+v", p)
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
	var c Codec
	in.Code(&c)
	var out QueryMeta
	c = Decoder(c.Bytes())
	if out.Code(&c); c.Err() != nil {
		t.Fatal(c.Err())
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
	var c Codec
	in.Code(&c)
	var out WireHit
	c = Decoder(c.Bytes())
	if out.Code(&c); c.Err() != nil {
		t.Fatal(c.Err())
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
		var c Codec
		in.Code(&c)
		var out HitMeta
		c = Decoder(c.Bytes())
		if out.Code(&c); c.Err() != nil {
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

// wireBytes encodes one sample of a layout for TestWireBytesPinned.
func wireBytes(v any) []byte {
	var c Codec
	switch v := v.(type) {
	case blast.WorkCounters:
		CodeWork(&c, &v)
	case HitMeta:
		v.Code(&c)
	case QueryMeta:
		v.Code(&c)
	case WireHSP:
		v.code(&c)
	case WireHit:
		v.Code(&c)
	case WireQueries:
		return EncodeWireQueries(v)
	case int:
		return EncodeInt(v)
	case []QueryMeta:
		return EncodeQueryMetas(v)
	case serveBatchMsg:
		return v.encode()
	default:
		panic(fmt.Sprintf("no layout for %T", v))
	}
	return c.Bytes()
}
