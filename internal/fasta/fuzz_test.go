package fasta

import (
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
