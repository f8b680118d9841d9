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

// Writer appends varint-framed primitives to a buffer.
type Writer struct {
	buf []byte
}

// Bytes returns the encoded buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Int appends a zig-zag varint.
//
//lint:encodes
func (w *Writer) Int(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// Uint appends a uvarint.
//
//lint:encodes
func (w *Writer) Uint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Bool appends a flag as one byte.
//
//lint:encodes
func (w *Writer) Bool(v bool) {
	var b uint64
	if v {
		b = 1
	}
	w.Uint(b)
}

// Float appends a float64 as its IEEE bits.
//
//lint:encodes
func (w *Writer) Float(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// String appends a length-prefixed string.
//
//lint:encodes
func (w *Writer) String(s string) {
	w.Uint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Blob appends a length-prefixed byte slice.
//
//lint:encodes
func (w *Writer) Blob(b []byte) {
	w.Uint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Reader consumes what Writer produced. The first decode error sticks; Err
// must be checked after the last field.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader wraps an encoded buffer.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("engine: codec: truncated %s at offset %d", what, r.off)
	}
}

// Int reads a zig-zag varint.
func (r *Reader) Int() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.off += n
	return v
}

// Uint reads a uvarint.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

// Bool reads a flag.
func (r *Reader) Bool() bool { return r.Uint() != 0 }

// Float reads a float64.
func (r *Reader) Float() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.data) {
		r.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := int(r.Uint())
	if r.err != nil {
		return ""
	}
	if n < 0 || r.off+n > len(r.data) {
		r.fail("string")
		return ""
	}
	s := string(r.data[r.off : r.off+n])
	r.off += n
	return s
}

// Blob reads a length-prefixed byte slice (copied).
func (r *Reader) Blob() []byte { return slices.Clone(r.blobView()) }

// SkipBlob passes over a length-prefixed byte slice without materialising
// it. Safe because nothing escapes: the bounds check is Blob's, and the bytes
// stay in the reader's buffer, which the caller already holds.
func (r *Reader) SkipBlob() { r.blobView() }

// blobView bounds-checks a length-prefixed byte slice and returns it as a
// view of the reader's buffer (nil on error).
func (r *Reader) blobView() []byte {
	n := int(r.Uint())
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.data) {
		r.fail("blob")
		return nil
	}
	r.off += n
	return r.data[r.off-n : r.off]
}

// --- message codecs ---------------------------------------------------------

// EncodeWork appends work counters.
func EncodeWork(w *Writer, wc blast.WorkCounters) {
	w.Int(wc.ResiduesScanned)
	w.Int(wc.SeedHits)
	w.Int(wc.UngappedExtensions)
	w.Int(wc.UngappedCells)
	w.Int(wc.GappedExtensions)
	w.Int(wc.GappedCells)
	w.Int(wc.TracebackCells)
	w.Int(wc.HSPsFound)
	w.Int(wc.IndexWords)
}

// DecodeWork reads work counters.
func DecodeWork(r *Reader) blast.WorkCounters {
	return blast.WorkCounters{
		ResiduesScanned:    r.Int(),
		SeedHits:           r.Int(),
		UngappedExtensions: r.Int(),
		UngappedCells:      r.Int(),
		GappedExtensions:   r.Int(),
		GappedCells:        r.Int(),
		TracebackCells:     r.Int(),
		HSPsFound:          r.Int(),
		IndexWords:         r.Int(),
	}
}

// EncodeHitMeta appends one metadata record.
func EncodeHitMeta(w *Writer, h HitMeta) {
	w.Int(int64(h.OID))
	w.Int(int64(h.Worker))
	w.String(h.ID)
	w.String(h.Defline)
	w.Int(int64(h.SubjLen))
	w.Int(int64(h.Score))
	w.Float(h.BitScore)
	w.Float(h.EValue)
	w.Int(int64(h.NumHSPs))
	w.Int(h.BlockSize)
}

// DecodeHitMeta reads one metadata record.
func DecodeHitMeta(r *Reader) HitMeta {
	return HitMeta{
		OID:       int(r.Int()),
		Worker:    int(r.Int()),
		ID:        r.String(),
		Defline:   r.String(),
		SubjLen:   int(r.Int()),
		Score:     int(r.Int()),
		BitScore:  r.Float(),
		EValue:    r.Float(),
		NumHSPs:   int(r.Int()),
		BlockSize: r.Int(),
	}
}

// EncodeQueryMeta appends one per-query submission.
func EncodeQueryMeta(w *Writer, qm QueryMeta) {
	w.Int(int64(qm.QueryIndex))
	w.Int(int64(qm.Fragment))
	EncodeWork(w, qm.Work)
	w.Uint(uint64(len(qm.Hits)))
	for _, h := range qm.Hits {
		EncodeHitMeta(w, h)
	}
}

// DecodeQueryMeta reads one per-query submission.
func DecodeQueryMeta(r *Reader) QueryMeta {
	qm := QueryMeta{
		QueryIndex: int(r.Int()),
		Fragment:   int(r.Int()),
		Work:       DecodeWork(r),
	}
	n := int(r.Uint())
	if r.Err() != nil || n < 0 || n > 1<<24 {
		return qm
	}
	qm.Hits = make([]HitMeta, 0, n)
	for i := 0; i < n; i++ {
		qm.Hits = append(qm.Hits, DecodeHitMeta(r))
	}
	return qm
}

// EncodeWireHSP appends one HSP.
func EncodeWireHSP(w *Writer, h WireHSP) {
	w.Int(int64(h.QueryFrom))
	w.Int(int64(h.QueryTo))
	w.Int(int64(h.SubjFrom))
	w.Int(int64(h.SubjTo))
	w.Int(int64(h.Score))
	w.Float(h.BitScore)
	w.Float(h.EValue)
	w.Blob(h.Trace)
}

// DecodeWireHSP reads one HSP.
func DecodeWireHSP(r *Reader) WireHSP {
	return WireHSP{
		QueryFrom: int(r.Int()),
		QueryTo:   int(r.Int()),
		SubjFrom:  int(r.Int()),
		SubjTo:    int(r.Int()),
		Score:     int(r.Int()),
		BitScore:  r.Float(),
		EValue:    r.Float(),
		Trace:     r.Blob(),
	}
}

// EncodeWireHit appends one full hit (alignment data; residues optional).
func EncodeWireHit(w *Writer, h WireHit) {
	w.Int(int64(h.OID))
	w.String(h.ID)
	w.String(h.Defline)
	w.Int(int64(h.SubjLen))
	w.Blob(h.Residues)
	w.Uint(uint64(len(h.HSPs)))
	for _, hsp := range h.HSPs {
		EncodeWireHSP(w, hsp)
	}
}

// DecodeWireHit reads one full hit.
func DecodeWireHit(r *Reader) WireHit {
	h := WireHit{
		OID:      int(r.Int()),
		ID:       r.String(),
		Defline:  r.String(),
		SubjLen:  int(r.Int()),
		Residues: r.Blob(),
	}
	n := int(r.Uint())
	if r.Err() != nil || n < 0 || n > 1<<24 {
		return h
	}
	h.HSPs = make([]WireHSP, 0, n)
	for i := 0; i < n; i++ {
		h.HSPs = append(h.HSPs, DecodeWireHSP(r))
	}
	return h
}

// EncodeWireQueries serializes the query set a job or batch broadcast
// carries; it dominates the broadcast bytes.
//
//lint:encodes
func EncodeWireQueries(q WireQueries) []byte {
	var w Writer
	w.Uint(uint64(q.Kind))
	w.Uint(uint64(len(q.IDs)))
	for i := range q.IDs {
		w.String(q.IDs[i])
		w.String(q.Descriptions[i])
		w.Blob(q.Residues[i])
	}
	return w.Bytes()
}

// DecodeWireQueries reads a query broadcast payload.
func DecodeWireQueries(data []byte) (WireQueries, error) {
	r := NewReader(data)
	var q WireQueries
	q.Kind = seq.Kind(r.Uint())
	n := int(r.Uint())
	if r.Err() != nil || n < 0 || n > 1<<24 {
		r.fail("query count")
		return q, r.Err()
	}
	q.IDs = make([]string, 0, n)
	q.Descriptions = make([]string, 0, n)
	q.Residues = make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		q.IDs = append(q.IDs, r.String())
		q.Descriptions = append(q.Descriptions, r.String())
		q.Residues = append(q.Residues, r.Blob())
	}
	return q, r.Err()
}

// EncodeInt encodes a single integer (assignment messages).
//
//lint:encodes
func EncodeInt(v int) []byte {
	var w Writer
	w.Int(int64(v))
	return w.Bytes()
}

// DecodeInt decodes a single integer.
func DecodeInt(data []byte) (int, error) {
	r := NewReader(data)
	v := int(r.Int())
	return v, r.Err()
}
