package fasta

import (
	"bytes"
	"strings"
	"testing"

	"parblast/internal/seq"
	"parblast/internal/wiretest"
)

// FuzzParse holds the FASTA reader to wiretest's three rules: no panic,
// allocation linear in the input, and whatever parses survives a write/parse
// round trip unchanged. Parsed records can carry IDs the writer rejects;
// that is an error, not a panic, and acceptable.
func FuzzParse(f *testing.F) {
	layout := wiretest.Layout{Name: "FASTA", Sample: []byte(sample), Decode: func(data []byte) (any, []byte, error) {
		seqs, err := Parse(data, seq.ProteinAlphabet)
		if err != nil {
			return nil, nil, err
		}
		again, err := Bytes(seqs, 60)
		values := make([]seq.Sequence, len(seqs))
		for i, s := range seqs {
			values[i] = *s
		}
		return values, again, err
	}}
	f.Add([]byte(sample))
	f.Add([]byte(">x\nMK\n"))
	f.Add([]byte(">only defline\n"))
	f.Add([]byte("no defline at all"))
	f.Add([]byte(">crlf\r\nMKVL\r\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { wiretest.Check(t, layout, data) })
}

// FuzzBuildIndex holds the faidx builder to wiretest's three rules. An index
// has no encoding of its own: its text is the FASTA it was built from, so the
// round trip rebuilds it from the same bytes and must find the same entries.
func FuzzBuildIndex(f *testing.F) {
	layout := wiretest.Layout{Name: "FASTA index", Sample: []byte(indexedSample), Decode: func(data []byte) (any, []byte, error) {
		ix, err := BuildIndex(bytes.NewReader(data))
		if err != nil {
			return nil, nil, err
		}
		return ix.Entries(), data, nil
	}}
	f.Add([]byte(indexedSample))
	f.Add([]byte(">a\nMK\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if wiretest.Check(t, layout, data) != nil {
			return
		}
		ix, _ := BuildIndex(bytes.NewReader(data))
		for _, e := range ix.Entries() {
			if e.Length < 0 || e.Offset < 0 {
				t.Fatalf("negative layout: %+v", e)
			}
		}
	})
}

// FuzzReadFai holds the .fai reader to wiretest's three rules (no panic,
// allocation linear in the input, WriteFai→ReadFai lossless), then fetches
// every decoded record's full range from a fixed file: an error or the
// residues, never a panic.
func FuzzReadFai(f *testing.F) {
	ix, err := BuildIndex(strings.NewReader(indexedSample))
	if err != nil {
		f.Fatal(err)
	}
	var sample bytes.Buffer
	if err := ix.WriteFai(&sample); err != nil {
		f.Fatal(err)
	}
	layout := wiretest.Layout{Name: ".fai", Sample: sample.Bytes(), Decode: func(data []byte) (any, []byte, error) {
		ix, err := ReadFai(bytes.NewReader(data))
		if err != nil {
			return nil, nil, err
		}
		var again bytes.Buffer
		err = ix.WriteFai(&again)
		return ix.Entries(), again.Bytes(), err
	}}
	f.Add(sample.Bytes())
	f.Add([]byte{})
	f.Add([]byte("x\t10\t0\t1\t9223372036854775807\n"))
	f.Add([]byte("x\t3\t9223372036854775807\t5\t6\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if wiretest.Check(t, layout, data) != nil {
			return
		}
		ix, _ := ReadFai(bytes.NewReader(data))
		for _, e := range ix.Entries() {
			if res, err := ix.Fetch(strings.NewReader(indexedSample), e.Name, 0, e.Length); err == nil && len(res) != e.Length {
				t.Fatalf("%s: fetched %d residues of %d", e.Name, len(res), e.Length)
			}
		}
	})
}
