package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"parblast/internal/blast"
	"parblast/internal/seq"
)

// Compact binary codecs for every protocol message.
//
// encoding/gob resends type descriptors with every message (each encoder
// is independent), which adds several hundred bytes of framing to even an
// empty result submission. At cluster scale that framing is noise; at this
// reproduction's scale it would drown the very message-volume asymmetry
// §3.2 is about. It also numbers types per process, in first-use order, so a
// gob payload's length — and every virtual clock behind it — would depend on
// what the process encoded before. Every message, the job and batch
// broadcasts included, therefore uses a hand-rolled varint codec: a few bytes
// per field, zero framing, and a length that is a pure function of the value.
//
// Each layout is written down once, as a code function that hands the
// address of every field, in wire order, to a Codec: an encoding Codec reads
// the fields and appends them, a decoding one fills them from its buffer. A
// top-level message's code returns its Codec, so that coding and finishing
// is one expression.

// Codec writes or reads one message. Its direction is fixed when it is built:
// the zero Codec appends to a fresh buffer, one from Decoder consumes data.
// While decoding, the first error sticks, later reads leave their fields
// zero, and Err must be checked after the last field. A Codec is a value
// held by the caller, so coding a message allocates no Codec whether or not
// a call is inlined.
type Codec struct {
	buf     []byte
	off     int
	err     error
	reading bool
	// text is one string copy of buf, made by the first non-empty String a
	// decoder reads: every decoded string is a substring of it, so a message
	// costs one string allocation however many strings it holds.
	text string
}

// Decoder returns a Codec that fills what it is given from data.
func Decoder(data []byte) Codec { return Codec{buf: data, reading: true} }

// Encoder returns a Codec that appends to a fresh buffer of capacity n: a
// caller that knows about how long its message will be sizes it once.
func Encoder(n int) Codec { return Codec{buf: make([]byte, 0, n)} }

// Bytes returns the encoded buffer.
func (c *Codec) Bytes() []byte { return c.buf }

// Err returns the first decode error, if any.
func (c *Codec) Err() error { return c.err }

func (c *Codec) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("engine: codec: truncated %s at offset %d", what, c.off)
	}
}

// uvarint codes one uvarint and returns the value written or read.
func (c *Codec) uvarint(v uint64, what string) uint64 {
	if !c.reading {
		c.buf = binary.AppendUvarint(c.buf, v)
		return v
	}
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		c.fail(what)
		return 0
	}
	c.off += n
	return v
}

// Count writes the length n, or reads one and ignores n, as a uvarint under
// the count rule: a decoded count larger than the bytes left is an error.
// Every element and every byte takes at least one byte on the wire, so no
// input sizes an allocation beyond its own length.
//
//lint:encodes
func (c *Codec) Count(n int) int {
	v := c.uvarint(uint64(n), "count")
	if c.reading && v > uint64(len(c.buf)-c.off) {
		c.fail("count")
		return 0
	}
	return int(v)
}

// Len codes len(*s) under the count rule and, when decoding, sizes *s to the
// count read, so the caller's loop codes each element in place.
//
//lint:encodes
func Len[T any](c *Codec, s *[]T) int { return Size(c, s, c.Count(len(*s))) }

// Size sizes *s to n when decoding, for a slice that runs parallel to one
// whose length Len coded, and returns n.
func Size[T any](c *Codec, s *[]T, n int) int {
	if c.reading && n > 0 {
		*s = make([]T, n)
	}
	return n
}

// Int64 codes a zig-zag varint.
//
//lint:encodes
func (c *Codec) Int64(v *int64) {
	if !c.reading {
		c.buf = binary.AppendVarint(c.buf, *v)
		return
	}
	if c.err != nil {
		return
	}
	x, n := binary.Varint(c.buf[c.off:])
	if n <= 0 {
		c.fail("varint")
		return
	}
	c.off += n
	*v = x
}

// Int codes an int as a zig-zag varint.
//
//lint:encodes
func (c *Codec) Int(v *int) {
	x := int64(*v)
	if c.Int64(&x); c.reading {
		*v = int(x)
	}
}

// Ints codes a counted list of ints.
//
//lint:encodes
func (c *Codec) Ints(s *[]int) {
	for i := range Len(c, s) {
		c.Int(&(*s)[i])
	}
}

// Uint codes a uvarint.
//
//lint:encodes
func (c *Codec) Uint(v *uint64) {
	if x := c.uvarint(*v, "uvarint"); c.reading {
		*v = x
	}
}

// Bool codes a flag as a one-byte uvarint.
//
//lint:encodes
func (c *Codec) Bool(v *bool) {
	var b uint64
	if *v {
		b = 1
	}
	if b = c.uvarint(b, "uvarint"); c.reading {
		*v = b != 0
	}
}

// Float codes a float64 as its IEEE bits.
//
//lint:encodes
func (c *Codec) Float(v *float64) {
	if !c.reading {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*v))
		return
	}
	if c.err != nil {
		return
	}
	if len(c.buf)-c.off < 8 {
		c.fail("float64")
		return
	}
	*v = math.Float64frombits(binary.LittleEndian.Uint64(c.buf[c.off:]))
	c.off += 8
}

// String codes a length-prefixed string. A decoded one shares the message's
// one string copy, so it keeps that copy alive as long as it lives.
//
//lint:encodes
func (c *Codec) String(s *string) {
	if !c.reading {
		c.Count(len(*s))
		c.buf = append(c.buf, *s...)
		return
	}
	if n := len(c.view()); n > 0 {
		if len(c.text) != len(c.buf) {
			c.text = string(c.buf)
		}
		*s = c.text[c.off-n : c.off]
		return
	}
	*s = ""
}

// Blob codes a length-prefixed byte slice; a decoded one is a copy.
//
//lint:encodes
func (c *Codec) Blob(b *[]byte) {
	if !c.reading {
		c.Count(len(*b))
		c.buf = append(c.buf, *b...)
		return
	}
	*b = slices.Clone(c.view())
}

// view reads a length-prefixed byte slice as a view of the buffer (nil on
// error).
func (c *Codec) view() []byte {
	n := c.Count(0)
	if c.err != nil {
		return nil
	}
	c.off += n
	return c.buf[c.off-n : c.off]
}

// --- message layouts --------------------------------------------------------

// CodeWork codes work counters.
func CodeWork(c *Codec, wc *blast.WorkCounters) {
	c.Int64(&wc.ResiduesScanned)
	c.Int64(&wc.SeedHits)
	c.Int64(&wc.UngappedExtensions)
	c.Int64(&wc.UngappedCells)
	c.Int64(&wc.GappedExtensions)
	c.Int64(&wc.GappedCells)
	c.Int64(&wc.TracebackCells)
	c.Int64(&wc.HSPsFound)
	c.Int64(&wc.IndexWords)
}

// Code codes one metadata record.
func (h *HitMeta) Code(c *Codec) {
	c.Int(&h.OID)
	c.Int(&h.Worker)
	c.String(&h.ID)
	c.String(&h.Defline)
	c.Int(&h.SubjLen)
	c.Int(&h.Score)
	c.Float(&h.BitScore)
	c.Float(&h.EValue)
	c.Int(&h.NumHSPs)
	c.Int64(&h.BlockSize)
}

// Code codes one per-query submission.
func (qm *QueryMeta) Code(c *Codec) {
	c.Int(&qm.QueryIndex)
	c.Int(&qm.Fragment)
	CodeWork(c, &qm.Work)
	for i := range Len(c, &qm.Hits) {
		qm.Hits[i].Code(c)
	}
}

func (h *WireHSP) code(c *Codec) {
	c.Int(&h.QueryFrom)
	c.Int(&h.QueryTo)
	c.Int(&h.SubjFrom)
	c.Int(&h.SubjTo)
	c.Int(&h.Score)
	c.Float(&h.BitScore)
	c.Float(&h.EValue)
	c.Blob(&h.Trace)
}

// Code codes one full hit (alignment data; residues optional).
func (h *WireHit) Code(c *Codec) {
	c.Int(&h.OID)
	c.String(&h.ID)
	c.String(&h.Defline)
	c.Int(&h.SubjLen)
	c.Blob(&h.Residues)
	for i := range Len(c, &h.HSPs) {
		h.HSPs[i].code(c)
	}
}

// code codes the query set a job or batch broadcast carries; it dominates
// the broadcast bytes.
func (q *WireQueries) code(c *Codec) *Codec {
	kind := uint64(q.Kind)
	c.Uint(&kind)
	q.Kind = seq.Kind(kind)
	n := Len(c, &q.IDs)
	Size(c, &q.Descriptions, n)
	Size(c, &q.Residues, n)
	for i := range n {
		c.String(&q.IDs[i])
		c.String(&q.Descriptions[i])
		c.Blob(&q.Residues[i])
	}
	return c
}

// EncodeWireQueries serializes a query broadcast payload.
func EncodeWireQueries(q WireQueries) []byte { return q.code(new(Codec)).Bytes() }

// DecodeWireQueries reads a query broadcast payload.
func DecodeWireQueries(data []byte) (q WireQueries, err error) {
	c := Decoder(data)
	q.code(&c)
	return q, c.Err()
}

// EncodeInt encodes a single integer (assignment messages).
func EncodeInt(v int) []byte {
	var c Codec
	c.Int(&v)
	return c.Bytes()
}

// DecodeInt decodes a single integer.
func DecodeInt(data []byte) (v int, err error) {
	c := Decoder(data)
	c.Int(&v)
	return v, c.Err()
}
