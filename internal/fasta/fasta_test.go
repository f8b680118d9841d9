package fasta

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"parblast/internal/seq"
)

const sample = `>sp|P12345 first protein
MKVLAWFQ
ERTYHPSD
>second
NIKLMMKV
>third with a description
MK
`

// Bytes renders sequences as FASTA text in memory, width residues a line,
// through buffers sized to the text.
func Bytes(seqs []*seq.Sequence, width int) ([]byte, error) {
	size := 0
	for _, s := range seqs {
		size += len(s.ID) + len(s.Description) + 3 + len(s.Residues) + len(s.Residues)/width + 1
	}
	var buf bytes.Buffer
	buf.Grow(size)
	w := &Writer{w: bufio.NewWriterSize(&buf, max(min(size, maxBuffer), 16)), width: width} // bufio reads 0 as 4 KiB
	for _, s := range seqs {
		if err := w.Write(s); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// letters returns a record's residues as letter text.
func letters(s *seq.Sequence) string { return string(s.Alpha.Decode(s.Residues)) }

// Parse parses FASTA text held in memory.
func Parse(data []byte, alpha *seq.Alphabet) ([]*seq.Sequence, error) {
	return NewReader(bytes.NewReader(data), alpha).ReadAll()
}

func TestReaderBasic(t *testing.T) {
	seqs, err := Parse([]byte(sample), seq.ProteinAlphabet)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 {
		t.Fatalf("got %d records", len(seqs))
	}
	if seqs[0].ID != "sp|P12345" || seqs[0].Description != "first protein" {
		t.Fatalf("defline parsed wrong: %q / %q", seqs[0].ID, seqs[0].Description)
	}
	if letters(seqs[0]) != "MKVLAWFQERTYHPSD" {
		t.Fatalf("residues: %q", letters(seqs[0]))
	}
	if seqs[1].ID != "second" || seqs[1].Description != "" {
		t.Fatalf("bare defline parsed wrong: %+v", seqs[1])
	}
	if letters(seqs[2]) != "MK" {
		t.Fatalf("last record: %q", letters(seqs[2]))
	}
}

func TestReaderCRLFAndBlankLines(t *testing.T) {
	text := ">a desc\r\nMKVL\r\n\r\nAWFQ\r\n>b\r\nMM\r\n"
	seqs, err := Parse([]byte(text), seq.ProteinAlphabet)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || letters(seqs[0]) != "MKVLAWFQ" {
		t.Fatalf("CRLF parse wrong: %+v", seqs)
	}
}

func TestReaderAutoDetectsAlphabet(t *testing.T) {
	r := NewReader(strings.NewReader(">d\nACGTACGTACGT\n"), nil)
	s, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if s.Alpha.Kind() != seq.DNA {
		t.Fatalf("detected %s, want dna", s.Alpha.Kind())
	}
}

func TestReaderErrors(t *testing.T) {
	if _, err := Parse([]byte("garbage, no defline\n"), seq.ProteinAlphabet); err == nil {
		t.Fatal("missing defline accepted")
	}
	if _, err := Parse([]byte(">empty\n>next\nMK\n"), seq.ProteinAlphabet); err == nil {
		t.Fatal("record without residues accepted")
	}
	// An invalid letter reads as the wildcard, with no error.
	seqs, err := Parse([]byte(">x\nMK?L\n"), seq.ProteinAlphabet)
	if err != nil || len(seqs) != 1 {
		t.Fatalf("invalid letter not wildcarded: %v", err)
	}
	if got := seqs[0].Residues[2]; got != seq.ProteinAlphabet.Wildcard() {
		t.Fatalf("invalid letter read as code %d, want the wildcard", got)
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader(strings.NewReader(sample), seq.ProteinAlphabet)
	for i := 0; i < 3; i++ {
		if _, err := r.Read(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatal("EOF not sticky")
	}
}

func TestWriterRoundTrip(t *testing.T) {
	in, err := Parse([]byte(sample), seq.ProteinAlphabet)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Bytes(in, 60)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(out, seq.ProteinAlphabet)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(in) {
		t.Fatalf("round trip lost records: %d vs %d", len(back), len(in))
	}
	for i := range in {
		if in[i].ID != back[i].ID || letters(in[i]) != letters(back[i]) ||
			in[i].Description != back[i].Description {
			t.Fatalf("record %d mutated in round trip", i)
		}
	}
}

func TestWriterLineWidth(t *testing.T) {
	s := seq.New(seq.ProteinAlphabet, "w", "", strings.Repeat("MK", 50))
	out, err := Bytes([]*seq.Sequence{s}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if i == 0 {
			continue // defline
		}
		if len(line) > 10 {
			t.Fatalf("line %d longer than width: %q", i, line)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.fasta")
	in, _ := Parse([]byte(sample), seq.ProteinAlphabet)
	if err := WriteFile(path, in, 60); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path, seq.ProteinAlphabet)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("file round trip lost records: %d", len(back))
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.fasta"), nil); !os.IsNotExist(err) {
		t.Fatalf("want not-exist error, got %v", err)
	}
}

func TestSplitDefline(t *testing.T) {
	id, desc := SplitDefline("  id1   long  description ")
	if id != "id1" || desc != "long  description" {
		t.Fatalf("split: %q / %q", id, desc)
	}
	id, desc = SplitDefline("tab\tseparated desc")
	if id != "tab" || desc != "separated desc" {
		t.Fatalf("tab split: %q / %q", id, desc)
	}
}

func TestRoundTripQuick(t *testing.T) {
	// Property: any sequence set built from valid letters survives a
	// write/parse round trip byte-identically in residue content.
	f := func(ids []uint8, bodies [][]byte) bool {
		n := len(ids)
		if n == 0 || n > 8 {
			return true
		}
		var seqs []*seq.Sequence
		for i := 0; i < n; i++ {
			var body []byte
			if i < len(bodies) {
				body = bodies[i]
			}
			letters := make([]byte, 0, len(body)+1)
			for _, c := range body {
				letters = append(letters, seq.ProteinLetters[int(c)%20])
			}
			if len(letters) == 0 {
				letters = append(letters, 'M')
			}
			seqs = append(seqs, seq.New(seq.ProteinAlphabet,
				"id"+string(rune('a'+i))+string(rune('0'+ids[i]%10)), "", string(letters)))
		}
		data, err := Bytes(seqs, 17)
		if err != nil {
			return false
		}
		back, err := Parse(data, seq.ProteinAlphabet)
		if err != nil || len(back) != len(seqs) {
			return false
		}
		for i := range seqs {
			if !bytes.Equal(seqs[i].Residues, back[i].Residues) || seqs[i].ID != back[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
