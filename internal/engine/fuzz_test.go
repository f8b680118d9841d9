package engine

import (
	"testing"

	"parblast/internal/blast"
	"parblast/internal/seq"
	"parblast/internal/wiretest"
)

// codeLayout adapts a layout whose code fills a *T.
func codeLayout[T any](name string, sample T, code func(*T, *Codec)) wiretest.Layout {
	enc := func(v *T) []byte {
		var c Codec
		code(v, &c)
		return c.Bytes()
	}
	return wiretest.Layout{Name: name, Sample: enc(&sample), Decode: func(data []byte) (any, []byte, error) {
		var v T
		c := Decoder(data)
		code(&v, &c)
		return v, enc(&v), c.Err()
	}}
}

// engineLayouts lists every wire layout this package owns.
func engineLayouts() []wiretest.Layout {
	hit := HitMeta{OID: 2, Worker: 1, ID: "x", Defline: "d", Score: 9, BitScore: 4.5, EValue: 1e-3, NumHSPs: 1, BlockSize: 80}
	hsp := WireHSP{QueryFrom: 1, QueryTo: 9, SubjFrom: 3, SubjTo: 11, Score: 20, EValue: 0.5, Trace: []byte{0, 1}}
	qm := QueryMeta{QueryIndex: 1, Fragment: 2, Work: blast.WorkCounters{SeedHits: 3}, Hits: []HitMeta{hit}}
	queries := WireQueries{Kind: seq.Protein, IDs: []string{"q1", "q2"}, Descriptions: []string{"first query", ""}, Residues: [][]byte{{1, 2, 3}, {4}}}
	return []wiretest.Layout{
		codeLayout("work", qm.Work, func(w *blast.WorkCounters, c *Codec) { CodeWork(c, w) }),
		codeLayout("hit meta", hit, (*HitMeta).Code),
		codeLayout("query meta", qm, (*QueryMeta).Code),
		codeLayout("wire HSP", hsp, (*WireHSP).code),
		codeLayout("wire hit", WireHit{OID: 1, ID: "s", Residues: []byte{1, 2}, HSPs: []WireHSP{hsp}}, (*WireHit).Code),
		codeLayout("wire queries", queries, func(q *WireQueries, c *Codec) { q.code(c) }),
		codeLayout("int", -5, func(v *int, c *Codec) { c.Int(v) }),
		codeLayout("query metas", []QueryMeta{qm, {QueryIndex: 4}}, func(m *[]QueryMeta, c *Codec) { CodeQueryMetas(c, m) }),
		codeLayout("serve batch", serveBatchMsg{Seq: 3, Queries: EncodeWireQueries(queries)}, func(m *serveBatchMsg, c *Codec) { m.code(c) }),
	}
}

// engineLayout returns the layout of engineLayouts named name.
func engineLayout(name string) wiretest.Layout {
	for _, l := range engineLayouts() {
		if l.Name == name {
			return l
		}
	}
	panic("no wire layout " + name)
}

// FuzzWire hardens every wire layout of this package against corrupt or
// malicious payloads (wiretest.Check has the rules).
func FuzzWire(f *testing.F) { wiretest.Fuzz(f, engineLayouts()) }

// FuzzDecodeQueryMeta holds the query-meta layout to wiretest.Check, and an
// empty payload must not decode.
func FuzzDecodeQueryMeta(f *testing.F) {
	l := engineLayout("query meta")
	f.Add(l.Sample)
	f.Add([]byte{})
	f.Add(wiretest.MaxVarint)
	f.Fuzz(func(t *testing.T, data []byte) {
		if wiretest.Check(t, l, data) == nil && len(data) == 0 {
			t.Fatal("empty buffer decoded without error")
		}
	})
}

// FuzzWireQueries holds the query-broadcast layout to wiretest.Check: its
// encoding is canonical, which the byte-identity pins depend on.
func FuzzWireQueries(f *testing.F) {
	l := engineLayout("wire queries")
	f.Add(l.Sample)
	f.Add(EncodeWireQueries(WireQueries{}))
	f.Add([]byte{})
	f.Add(wiretest.MaxVarint)
	f.Fuzz(func(t *testing.T, data []byte) { wiretest.Check(t, l, data) })
}

// FuzzDecodeWireHit holds the full-hit layout to wiretest.Check.
func FuzzDecodeWireHit(f *testing.F) {
	l := engineLayout("wire hit")
	f.Add(l.Sample)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { wiretest.Check(t, l, data) })
}

// TestHostileCountsAreErrors: a count with nothing behind it is an error,
// and no decoder sizes an allocation by it.
func TestHostileCountsAreErrors(t *testing.T) {
	for _, c := range []struct {
		name   string
		data   []byte
		decode func([]byte) error
	}{
		// 2^40 query metas in a 6-byte payload.
		{"query metas", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20}, func(data []byte) error {
			_, err := DecodeQueryMetas(data)
			return err
		}},
		// Query, fragment, nine work counters, then 2^24-1 hits.
		{"query meta", []byte{2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x07}, func(data []byte) error {
			var qm QueryMeta
			c := Decoder(data)
			qm.Code(&c)
			return c.Err()
		}},
		// OID, empty ID, defline, length and residues, then 2^24-1 HSPs.
		{"wire hit", []byte{2, 0, 0, 2, 0, 0xFF, 0xFF, 0xFF, 0x07}, func(data []byte) error {
			var h WireHit
			c := Decoder(data)
			h.Code(&c)
			return c.Err()
		}},
		// Kind, then 2^24-1 queries.
		{"wire queries", []byte{0, 0xFF, 0xFF, 0xFF, 0x07}, func(data []byte) error {
			_, err := DecodeWireQueries(data)
			return err
		}},
	} {
		var err error
		if n := wiretest.Allocated(func() { err = c.decode(c.data) }); n >= 64<<10 {
			t.Errorf("%s: decoding %d bytes allocated %d", c.name, len(c.data), n)
		}
		if err == nil {
			t.Errorf("%s: a count with nothing behind it was accepted", c.name)
		}
	}
}
