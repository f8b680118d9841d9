package fasta

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// faidx-style random access: an index over a FASTA file that maps every
// record to its byte layout, so any subsequence can be fetched without
// scanning the file — the same contract as samtools faidx and its ".fai"
// files, which this implementation reads and writes.
//
// The standard faidx restriction applies: within one record every sequence
// line except the last must have the same width.

// IndexEntry describes one record's layout.
type IndexEntry struct {
	// Name is the record ID (first defline token).
	Name string
	// Length is the residue count.
	Length int
	// Offset is the byte position of the first residue byte.
	Offset int64
	// LineBases is the number of residues per full line.
	LineBases int
	// LineBytes is the byte stride per line (LineBases + newline bytes).
	LineBytes int
}

// Index maps record names to layout entries.
type Index struct {
	entries []IndexEntry
	byName  map[string]int
}

// Entries returns the records in file order.
func (ix *Index) Entries() []IndexEntry { return ix.entries }

// Lookup finds a record by name.
func (ix *Index) Lookup(name string) (IndexEntry, bool) {
	i, ok := ix.byName[name]
	if !ok {
		return IndexEntry{}, false
	}
	return ix.entries[i], true
}

// Names returns record names in file order.
func (ix *Index) Names() []string {
	out := make([]string, len(ix.entries))
	for i, e := range ix.entries {
		out[i] = e.Name
	}
	return out
}

// BuildIndex scans FASTA text once and produces the index.
func BuildIndex(r io.Reader) (*Index, error) {
	br := bufio.NewReaderSize(r, readBuffer(r))
	ix := &Index{byName: make(map[string]int)}
	var offset int64

	var cur *IndexEntry
	var lastLineBases int
	var sawShortLine bool
	finish := func() {
		if cur != nil {
			ix.byName[cur.Name] = len(ix.entries)
			ix.entries = append(ix.entries, *cur)
			cur = nil
		}
	}
	lineNo := 0
	for {
		line, err := br.ReadBytes('\n')
		lineLen := int64(len(line))
		if len(line) == 0 && err != nil {
			break
		}
		lineNo++
		trimmed := bytes.TrimRight(line, "\r\n")
		switch {
		case len(trimmed) == 0:
			// Blank lines end the uniform-layout guarantee for the record.
			if cur != nil {
				sawShortLine = true
			}
		case trimmed[0] == '>':
			finish()
			id, _ := SplitDefline(string(trimmed[1:]))
			if id == "" {
				return nil, fmt.Errorf("fasta: line %d: empty record name", lineNo)
			}
			if _, dup := ix.byName[id]; dup {
				return nil, fmt.Errorf("fasta: duplicate record name %q", id)
			}
			cur = &IndexEntry{Name: id, Offset: offset + lineLen}
			lastLineBases = -1
			sawShortLine = false
		default:
			if cur == nil {
				return nil, fmt.Errorf("fasta: line %d: residues before any defline", lineNo)
			}
			if sawShortLine {
				return nil, fmt.Errorf("fasta: record %q has non-uniform line lengths (line %d)", cur.Name, lineNo)
			}
			bases := len(trimmed)
			if cur.LineBases == 0 {
				cur.LineBases = bases
				cur.LineBytes = int(lineLen)
			} else if bases != cur.LineBases {
				// Only the final line may be short.
				sawShortLine = true
			}
			if lastLineBases >= 0 && lastLineBases != cur.LineBases {
				return nil, fmt.Errorf("fasta: record %q has non-uniform line lengths (line %d)", cur.Name, lineNo)
			}
			lastLineBases = bases
			cur.Length += bases
		}
		offset += lineLen
		if err != nil {
			break
		}
	}
	finish()
	if len(ix.entries) == 0 {
		return nil, fmt.Errorf("fasta: no records to index")
	}
	return ix, nil
}

// Fetch reads residues [from, to) of the named record (0-based half-open)
// from the underlying file without scanning it.
func (ix *Index) Fetch(ra io.ReaderAt, name string, from, to int) ([]byte, error) {
	e, ok := ix.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("fasta: record %q not in index", name)
	}
	if from < 0 || to > e.Length || from > to {
		return nil, fmt.Errorf("fasta: range [%d,%d) outside record %q of length %d", from, to, name, e.Length)
	}
	if from == to {
		return nil, nil
	}
	// Byte span covering the residue range, including embedded newlines.
	startByte := e.Offset + int64(from/e.LineBases)*int64(e.LineBytes) + int64(from%e.LineBases)
	endByte := e.Offset + int64((to-1)/e.LineBases)*int64(e.LineBytes) + int64((to-1)%e.LineBases) + 1
	// Read the span a chunk at a time: what is allocated is what the file
	// holds, never what the index claims.
	span := io.NewSectionReader(ra, startByte, endByte-startByte)
	buf := make([]byte, min(endByte-startByte, 64<<10))
	out := make([]byte, 0, min(to-from, len(buf)))
	for {
		n, err := span.Read(buf)
		for _, c := range buf[:n] {
			if c != '\n' && c != '\r' {
				out = append(out, c)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("fasta: fetch %q: %w", name, err)
		}
	}
	if len(out) != to-from {
		return nil, fmt.Errorf("fasta: fetch %q returned %d residues, want %d (corrupt index?)",
			name, len(out), to-from)
	}
	return out, nil
}

// WriteFai renders the index in the standard 5-column .fai format.
func (ix *Index) WriteFai(w io.Writer) error {
	for _, e := range ix.entries {
		if _, err := fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n",
			e.Name, e.Length, e.Offset, e.LineBases, e.LineBytes); err != nil {
			return err
		}
	}
	return nil
}

// ReadFai parses a .fai file.
func ReadFai(r io.Reader) (*Index, error) {
	ix := &Index{byName: make(map[string]int)}
	sc := bufio.NewScanner(r)
	// A record's line is short: start the buffer there, not at the
	// scanner's 4 KB, so that a small index costs little.
	sc.Buffer(make([]byte, 0, 256), bufio.MaxScanTokenSize)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 5 {
			return nil, fmt.Errorf("fasta: .fai line %d has %d fields, want 5", lineNo, len(fields))
		}
		var e IndexEntry
		e.Name = fields[0]
		var err error
		if e.Length, err = strconv.Atoi(fields[1]); err != nil {
			return nil, fmt.Errorf("fasta: .fai line %d: %w", lineNo, err)
		}
		if e.Offset, err = strconv.ParseInt(fields[2], 10, 64); err != nil {
			return nil, fmt.Errorf("fasta: .fai line %d: %w", lineNo, err)
		}
		if e.LineBases, err = strconv.Atoi(fields[3]); err != nil {
			return nil, fmt.Errorf("fasta: .fai line %d: %w", lineNo, err)
		}
		if e.LineBytes, err = strconv.Atoi(fields[4]); err != nil {
			return nil, fmt.Errorf("fasta: .fai line %d: %w", lineNo, err)
		}
		if e.LineBases <= 0 || e.LineBytes <= e.LineBases-1 {
			return nil, fmt.Errorf("fasta: .fai line %d: implausible layout %d/%d", lineNo, e.LineBases, e.LineBytes)
		}
		if e.Length < 0 {
			return nil, fmt.Errorf("fasta: .fai line %d: negative length %d", lineNo, e.Length)
		}
		if e.Offset < 0 {
			return nil, fmt.Errorf("fasta: .fai line %d: negative offset %d", lineNo, e.Offset)
		}
		// Fetch computes the record's byte span, which ends before Offset +
		// (Length/LineBases)·LineBytes + LineBases: that must be a file offset.
		room := math.MaxInt64 - e.Offset - int64(e.LineBases)
		if lines := int64(e.Length / e.LineBases); room < 0 || lines > 0 && int64(e.LineBytes) > room/lines {
			return nil, fmt.Errorf("fasta: .fai line %d: %d residues at %d bytes a line pass the largest file offset", lineNo, e.Length, e.LineBytes)
		}
		if _, dup := ix.byName[e.Name]; dup {
			return nil, fmt.Errorf("fasta: .fai duplicate record %q", e.Name)
		}
		ix.byName[e.Name] = len(ix.entries)
		ix.entries = append(ix.entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(ix.entries) == 0 {
		return nil, fmt.Errorf("fasta: empty .fai")
	}
	// Keep entries sorted by offset (file order) regardless of input order.
	sort.SliceStable(ix.entries, func(a, b int) bool {
		return ix.entries[a].Offset < ix.entries[b].Offset
	})
	for i, e := range ix.entries {
		ix.byName[e.Name] = i
	}
	return ix, nil
}
