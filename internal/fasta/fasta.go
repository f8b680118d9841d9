// Package fasta reads and writes FASTA-format sequence files.
//
// The reader is streaming (it never loads the whole file) and tolerant of
// the dialect variation found in real databases: CRLF line endings, blank
// lines, lower-case residues, and numeric position columns. Records keep the
// raw defline split into ID (first token) and description.
package fasta

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"

	"parblast/internal/seq"
)

// Reader streams sequences from FASTA text.
type Reader struct {
	br    *bufio.Reader
	alpha *seq.Alphabet
	// pending holds a defline we read past while finishing the previous
	// record.
	pending []byte
	line    int
	eof     bool
	strict  bool
}

// maxBuffer is the buffer the package reads and writes text through, unless
// the text is known to be shorter.
const maxBuffer = 1 << 16

// readBuffer is the read buffer size for r: what r has left when it says so
// (a bytes or strings reader), so that a short text is not read through a
// 64 KiB buffer.
func readBuffer(r io.Reader) int {
	if l, ok := r.(interface{ Len() int }); ok {
		return min(l.Len(), maxBuffer)
	}
	return maxBuffer
}

// NewReader wraps r. If alpha is nil the alphabet is guessed from the first
// record's residues and then fixed for the rest of the stream.
func NewReader(r io.Reader, alpha *seq.Alphabet) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, readBuffer(r)), alpha: alpha}
}

// SetStrict makes Read return an error on invalid residue letters instead of
// silently mapping them to the wildcard.
func (r *Reader) SetStrict(strict bool) { r.strict = strict }

// Alphabet returns the alphabet in use, which is nil until the first record
// has been read when auto-detection is active.
func (r *Reader) Alphabet() *seq.Alphabet { return r.alpha }

// Read returns the next sequence, or io.EOF after the last one.
func (r *Reader) Read() (*seq.Sequence, error) {
	defline, err := r.nextDefline()
	if err != nil {
		return nil, err
	}
	var residueText []byte
	for {
		line, err := r.readLine()
		if err == io.EOF {
			r.eof = true
			break
		}
		if err != nil {
			return nil, err
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			continue
		}
		if trimmed[0] == '>' {
			r.pending = append([]byte(nil), trimmed...)
			break
		}
		residueText = append(residueText, trimmed...)
	}
	if r.alpha == nil {
		r.alpha = seq.AlphabetFor(seq.GuessKind(residueText))
	}
	id, desc := SplitDefline(string(defline))
	codes, encErr := r.alpha.Encode(residueText)
	if encErr != nil && r.strict {
		return nil, fmt.Errorf("fasta: record %q: %w", id, encErr)
	}
	if len(codes) == 0 {
		return nil, fmt.Errorf("fasta: record %q near line %d has no residues", id, r.line)
	}
	return &seq.Sequence{ID: id, Description: desc, Residues: codes, Alpha: r.alpha}, nil
}

func (r *Reader) nextDefline() ([]byte, error) {
	if r.pending != nil {
		d := r.pending
		r.pending = nil
		return d[1:], nil
	}
	if r.eof {
		return nil, io.EOF
	}
	for {
		line, err := r.readLine()
		if err != nil {
			return nil, err
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			continue
		}
		if trimmed[0] != '>' {
			return nil, fmt.Errorf("fasta: line %d: expected '>' defline, got %.20q", r.line, trimmed)
		}
		return append([]byte(nil), trimmed[1:]...), nil
	}
}

func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadBytes('\n')
	if len(line) > 0 {
		r.line++
		return line, nil
	}
	return nil, err
}

// ReadAll consumes the remaining records.
func (r *Reader) ReadAll() ([]*seq.Sequence, error) {
	var out []*seq.Sequence
	for {
		s, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

// SplitDefline separates a defline into the ID token and the description.
func SplitDefline(defline string) (id, description string) {
	defline = strings.TrimSpace(defline)
	if i := strings.IndexAny(defline, " \t"); i >= 0 {
		return defline[:i], strings.TrimSpace(defline[i+1:])
	}
	return defline, ""
}

// Writer emits FASTA text with fixed-width residue lines.
type Writer struct {
	w     *bufio.Writer
	width int
}

// NewWriter wraps w; width ≤ 0 selects the conventional 60 columns.
func NewWriter(w io.Writer, width int) *Writer { return newWriter(w, width, maxBuffer) }

// newWriter is NewWriter through a buffer of size bytes.
func newWriter(w io.Writer, width, size int) *Writer {
	if width <= 0 {
		width = 60
	}
	return &Writer{w: bufio.NewWriterSize(w, size), width: width}
}

// Write emits one record.
func (w *Writer) Write(s *seq.Sequence) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w.w, ">%s\n", s.Defline()); err != nil {
		return err
	}
	letters := s.Alpha.Decode(s.Residues)
	for len(letters) > 0 {
		n := w.width
		if n > len(letters) {
			n = len(letters)
		}
		if _, err := w.w.Write(letters[:n]); err != nil {
			return err
		}
		if err := w.w.WriteByte('\n'); err != nil {
			return err
		}
		letters = letters[n:]
	}
	return nil
}

// Flush writes buffered output through to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// ReadFile parses an entire FASTA file from the OS filesystem.
func ReadFile(path string, alpha *seq.Alphabet) ([]*seq.Sequence, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return NewReader(f, alpha).ReadAll()
}

// WriteFile writes sequences to a FASTA file on the OS filesystem.
func WriteFile(path string, seqs []*seq.Sequence, width int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := NewWriter(f, width)
	for _, s := range seqs {
		if err := w.Write(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Bytes renders sequences as FASTA text in memory, into a buffer sized to
// the text.
func Bytes(seqs []*seq.Sequence, width int) ([]byte, error) {
	if width <= 0 {
		width = 60
	}
	size := 0
	for _, s := range seqs {
		size += len(s.ID) + len(s.Description) + 3 + len(s.Residues) + len(s.Residues)/width + 1
	}
	var buf bytes.Buffer
	buf.Grow(size)
	w := newWriter(&buf, width, max(min(size, maxBuffer), 16)) // bufio reads 0 as 4 KiB
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

// Parse parses FASTA text held in memory.
func Parse(data []byte, alpha *seq.Alphabet) ([]*seq.Sequence, error) {
	return NewReader(bytes.NewReader(data), alpha).ReadAll()
}
