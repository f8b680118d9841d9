package formatdb

import (
	"encoding/binary"
	"strings"
	"testing"

	"parblast/internal/seq"
	"parblast/internal/vfs"
	"parblast/internal/wiretest"
)

// indexLayout holds decodeIndex to the wire rules: arbitrary (possibly
// truncated or corrupted) index bytes produce an error, never a panic; no
// count sizes an allocation beyond what the bytes can back; and a clean
// decode survives encodeIndex→decodeIndex unchanged.
func indexLayout(sample []byte) wiretest.Layout {
	return wiretest.Layout{Name: "formatdb index", Sample: sample, Decode: func(data []byte) (any, []byte, error) {
		title, kind, info, err := decodeIndex(data)
		if err != nil {
			return nil, nil, err
		}
		return []any{title, kind, *info}, encodeIndex(title, kind, info), nil
	}}
}

// formatSample formats three sequences as "ok" on a fresh store and returns
// the store and the index bytes.
func formatSample(tb testing.TB) (*vfs.FS, []byte) {
	tb.Helper()
	fs := vfs.MustNew(vfs.RAMDisk())
	seqs := []*seq.Sequence{
		seq.New(seq.ProteinAlphabet, "a", "first", "MKVLAW"),
		seq.New(seq.ProteinAlphabet, "b", "", "WWYV"),
		seq.New(seq.ProteinAlphabet, "c", "third", "PLKR"),
	}
	if _, err := Format(fs, "ok", seqs, Config{Kind: seq.Protein, Title: "fuzz"}); err != nil {
		tb.Fatal(err)
	}
	good, err := fs.ReadFile(indexPath("ok"))
	if err != nil {
		tb.Fatal(err)
	}
	return fs, good
}

func FuzzDecodeIndex(f *testing.F) {
	_, good := formatSample(f)
	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:8])
	layout := indexLayout(good)
	f.Fuzz(func(t *testing.T, data []byte) { wiretest.Check(t, layout, data) })
}

// TestHostileIndexIsAnError: a count the index bytes cannot back, or an
// offset array that decreases, is an error from Open, and no count sizes an
// allocation.
func TestHostileIndexIsAnError(t *testing.T) {
	fs, good := formatSample(t)
	// header is a 36-byte index header with nothing behind it.
	header := func(numSeqs, titleLen uint32) []byte {
		b := binary.LittleEndian.AppendUint32(nil, Magic)
		b = binary.LittleEndian.AppendUint32(b, Version)
		b = binary.LittleEndian.AppendUint32(b, uint32(seq.Protein))
		b = binary.LittleEndian.AppendUint32(b, numSeqs)
		b = binary.LittleEndian.AppendUint64(b, 0)
		b = binary.LittleEndian.AppendUint32(b, 0)
		b = binary.LittleEndian.AppendUint32(b, 0)
		return binary.LittleEndian.AppendUint32(b, titleLen)
	}
	// A real index whose hdrOffsets[1] points 2^40 bytes into the header file.
	far := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(far[headerSize(len("fuzz"))+8:], 1<<40)
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"title2p31", header(0, 1<<31)},
		{"seqs2p28", header(1<<28, 0)},
		{"seqsmax", header(^uint32(0), 0)},
		{"offset2p40", far},
	} {
		fs.WriteFile(indexPath(c.name), c.data)
		var err error
		if n := wiretest.Allocated(func() { _, err = Open(fs, c.name) }); n >= 64<<10 {
			t.Errorf("%s: opening a %d-byte index allocated %d", c.name, len(c.data), n)
		}
		if err == nil {
			t.Errorf("%s: a hostile index opened", c.name)
		}
	}
}

// TestHostileOffsetsAreErrors: DecodeWithOffsets checks every offset, not
// only the first and last, against its buffer. An offset past the buffer,
// below its predecessor or below zero is an error naming the ordinal, never
// a slice panic.
func TestHostileOffsetsAreErrors(t *testing.T) {
	seqOffs, seqBuf := []int64{0, 4, 8}, make([]byte, 8)
	for _, c := range []struct {
		name    string
		hdrOffs []int64
		ordinal string
	}{
		{"past the buffer", []int64{0, 100, 10}, "ordinal 8"},
		{"decreasing", []int64{5, 0, 5}, "ordinal 8"},
		{"negative", []int64{-1 << 62, 1 << 62, 1 << 62}, "ordinal 7"},
	} {
		recs, err := DecodeWithOffsets(7, c.hdrOffs, seqOffs, make([]byte, 10), seqBuf)
		if err == nil {
			t.Errorf("%s: header offsets %v decoded %d records", c.name, c.hdrOffs, len(recs))
		} else if !strings.Contains(err.Error(), c.ordinal) {
			t.Errorf("%s: error %q does not name %s", c.name, err, c.ordinal)
		}
	}
	if _, err := DecodeWithOffsets(0, []int64{0, 5, 10}, seqOffs, make([]byte, 10), seqBuf); err != nil {
		t.Errorf("consistent offsets: %v", err)
	}
}
