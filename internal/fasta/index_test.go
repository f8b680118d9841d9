package fasta

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"parblast/internal/seq"
)

const indexedSample = `>alpha first record
MKVLAWFQER
TYHPSDNIKL
MKVLA
>beta
WWYVWWYVWW
YV
>gamma single line
MK
`

func buildSampleIndex(t *testing.T) (*Index, *bytes.Reader) {
	t.Helper()
	ix, err := BuildIndex(strings.NewReader(indexedSample))
	if err != nil {
		t.Fatal(err)
	}
	return ix, bytes.NewReader([]byte(indexedSample))
}

func TestBuildIndexLayout(t *testing.T) {
	ix, _ := buildSampleIndex(t)
	if len(ix.Entries()) != 3 {
		t.Fatalf("%d entries", len(ix.Entries()))
	}
	alpha, ok := ix.Lookup("alpha")
	if !ok || alpha.Length != 25 || alpha.LineBases != 10 || alpha.LineBytes != 11 {
		t.Fatalf("alpha entry wrong: %+v", alpha)
	}
	beta, _ := ix.Lookup("beta")
	if beta.Length != 12 {
		t.Fatalf("beta length %d", beta.Length)
	}
	if names := ix.Names(); names[0] != "alpha" || names[2] != "gamma" {
		t.Fatalf("names: %v", names)
	}
	if _, ok := ix.Lookup("missing"); ok {
		t.Fatal("phantom record")
	}
}

func TestFetchSubsequences(t *testing.T) {
	ix, ra := buildSampleIndex(t)
	cases := []struct {
		name     string
		from, to int
		want     string
	}{
		{"alpha", 0, 10, "MKVLAWFQER"},
		{"alpha", 8, 12, "ERTY"},   // spans a line break
		{"alpha", 20, 25, "MKVLA"}, // last, short line
		{"alpha", 0, 25, "MKVLAWFQERTYHPSDNIKLMKVLA"},
		{"beta", 9, 12, "WYV"},
		{"gamma", 0, 2, "MK"},
		{"alpha", 5, 5, ""}, // empty range
	}
	for _, c := range cases {
		got, err := ix.Fetch(ra, c.name, c.from, c.to)
		if err != nil {
			t.Fatalf("%s[%d:%d]: %v", c.name, c.from, c.to, err)
		}
		if string(got) != c.want {
			t.Fatalf("%s[%d:%d] = %q, want %q", c.name, c.from, c.to, got, c.want)
		}
	}
	if _, err := ix.Fetch(ra, "alpha", 0, 26); err == nil {
		t.Fatal("out-of-range fetch accepted")
	}
	if _, err := ix.Fetch(ra, "nope", 0, 1); err == nil {
		t.Fatal("missing record accepted")
	}
}

func TestFaiRoundTrip(t *testing.T) {
	ix, _ := buildSampleIndex(t)
	var buf bytes.Buffer
	if err := ix.WriteFai(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFai(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Entries()) != len(ix.Entries()) {
		t.Fatal("entry count changed")
	}
	for i, e := range ix.Entries() {
		if back.Entries()[i] != e {
			t.Fatalf("entry %d changed: %+v vs %+v", i, back.Entries()[i], e)
		}
	}
}

func TestReadFaiErrors(t *testing.T) {
	bad := []string{
		"",                                  // empty
		"name\t1\t2\t3",                     // 4 fields
		"name\tx\t2\t3\t4",                  // non-numeric
		"n\t5\t0\t0\t1",                     // zero line bases
		"a\t5\t0\t10\t11\na\t5\t20\t10\t11", // duplicate
	}
	for i, text := range bad {
		if _, err := ReadFai(strings.NewReader(text)); err == nil {
			t.Fatalf("case %d accepted: %q", i, text)
		}
	}
}

func TestBuildIndexRejectsNonUniform(t *testing.T) {
	// A short line in the MIDDLE of a record breaks random access.
	bad := ">x\nMKVLAWFQER\nMK\nTYHPSDNIKL\n"
	if _, err := BuildIndex(strings.NewReader(bad)); err == nil {
		t.Fatal("non-uniform record accepted")
	}
	if _, err := BuildIndex(strings.NewReader("MKVL\n")); err == nil {
		t.Fatal("residues before defline accepted")
	}
	if _, err := BuildIndex(strings.NewReader(">a\nMK\n>a\nVL\n")); err == nil {
		t.Fatal("duplicate names accepted")
	}
	if _, err := BuildIndex(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestIndexAgainstWriterQuick(t *testing.T) {
	// Property: for any sequences written by our Writer, BuildIndex+Fetch
	// reproduces every full record.
	f := func(bodies [][]byte, width8 uint8) bool {
		width := 10 + int(width8)%50
		var seqs []*seq.Sequence
		for i, body := range bodies {
			if i >= 5 {
				break
			}
			letters := make([]byte, 0, len(body)+1)
			for _, c := range body {
				letters = append(letters, seq.ProteinLetters[int(c)%20])
			}
			if len(letters) == 0 {
				letters = append(letters, 'M')
			}
			seqs = append(seqs, seq.New(seq.ProteinAlphabet,
				"rec"+string(rune('a'+i)), "", string(letters)))
		}
		if len(seqs) == 0 {
			return true
		}
		data, err := Bytes(seqs, width)
		if err != nil {
			return false
		}
		ix, err := BuildIndex(bytes.NewReader(data))
		if err != nil {
			return false
		}
		ra := bytes.NewReader(data)
		for _, s := range seqs {
			got, err := ix.Fetch(ra, s.ID, 0, s.Len())
			if err != nil || string(got) != s.Letters() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestHostileFaiIsAnError: a .fai record with a negative length or offset,
// or whose byte span would end past the largest file offset, is refused by
// line number. Each used to read cleanly; the first then made Fetch panic in
// makeslice.
func TestHostileFaiIsAnError(t *testing.T) {
	for _, tc := range []struct{ text, want string }{
		{"x\t10\t0\t1\t9223372036854775807\n", "line 1: 10 residues at 9223372036854775807 bytes a line"},
		{"ok\t4\t0\t4\t5\nx\t-5\t0\t1\t2\n", "line 2: negative length -5"},
		{"x\t5\t-100\t1\t2\n", "line 1: negative offset -100"},
		{"x\t3\t9223372036854775807\t5\t6\n", "line 1: 3 residues at 6 bytes a line"},
	} {
		ix, err := ReadFai(strings.NewReader(tc.text))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %v, want one saying %q", tc.text, err, tc.want)
		}
		if err == nil {
			for _, e := range ix.Entries() {
				ix.Fetch(bytes.NewReader([]byte(indexedSample)), e.Name, 0, e.Length)
			}
		}
	}
}

// TestFaiBytesPinned: the .fai of a fixed FASTA file — a record with a short
// last line, a CRLF record and a one-line record — byte for byte, so neither
// the layout BuildIndex measures nor the columns WriteFai prints can drift.
func TestFaiBytesPinned(t *testing.T) {
	const fasta = ">a short last line\nMKVLA\nWFQ\n>b\r\nMKVL\r\nAW\r\n>c\nMK\n"
	const want = "a\t8\t19\t5\t6\nb\t6\t33\t4\t6\nc\t2\t46\t2\t3\n"
	ix, err := BuildIndex(strings.NewReader(fasta))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := ix.WriteFai(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Fatalf(".fai bytes moved:\ngot  %q\nwant %q", got.String(), want)
	}
	back, err := ReadFai(&got)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range back.Entries() {
		res, err := back.Fetch(strings.NewReader(fasta), e.Name, 0, e.Length)
		if err != nil || len(res) != e.Length {
			t.Fatalf("%s: fetched %q, %v", e.Name, res, err)
		}
	}
}
