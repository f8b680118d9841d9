// Package formatdb is the reproduction's equivalent of the NCBI formatdb
// tool: it converts FASTA sequence data into formatted database volumes —
// a binary index file plus header and sequence files — that BLAST searches
// instead of the raw FASTA.
//
// Per volume <base>[.NNN] it writes three files, mirroring NCBI's
// .pin/.phr/.psq triple:
//
//	<vol>.pin — index: counts, title, and the per-sequence offset arrays
//	            into the header and sequence files
//	<vol>.phr — concatenated deflines
//	<vol>.psq — concatenated residues in alphabet-code encoding
//
// A multi-volume database additionally gets an alias file <base>.pal
// naming its volumes (formatdb splits large databases into volumes; the
// paper discusses exactly this for the 11 GB nt database).
//
// The index is what makes pioBLAST's §3.1 virtual partitioning work: from
// the offset arrays one can compute, for any ordinal range of sequences,
// the exact byte extents to read from the global files — so the database
// can be partitioned dynamically into any number of virtual fragments with
// no physical fragment files. PhysicalFragment implements the mpiformatdb
// behaviour (static pre-partitioning) for the baseline engine.
package formatdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"

	"parblast/internal/fasta"
	"parblast/internal/seq"
	"parblast/internal/vfs"
)

// Magic identifies a parblast index file.
const Magic = 0x50424442 // "PBDB"

// Version is the on-disk format version.
const Version = 1

// Config controls formatting.
type Config struct {
	// Title is recorded in the index and shown in report headers.
	Title string
	// Kind of the database sequences.
	Kind seq.Kind
	// VolumeMaxResidues splits output into volumes of at most this many
	// residues (0 = single volume), as formatdb does for large databases.
	VolumeMaxResidues int64
	// FirstOID offsets the global ordinals recorded in the index; physical
	// fragments use it so that fragment-local results keep database-global
	// sequence numbers.
	FirstOID int
}

// VolumeInfo is the in-memory summary of one formatted volume.
type VolumeInfo struct {
	Base          string // file basename, e.g. "nr.000"
	NumSeqs       int
	TotalResidues int64
	MaxSeqLen     int
	// FirstOID is the global ordinal of this volume's first sequence.
	FirstOID int
	// HdrSize and SeqSize are the byte sizes of the .phr and .psq files.
	HdrSize int64
	SeqSize int64
	// arrayBase is the byte position in the index file where the offset
	// arrays begin (after the fixed header and title).
	arrayBase int64
	// hdrOffsets and seqOffsets have NumSeqs+1 entries each.
	hdrOffsets []int64
	seqOffsets []int64
}

// DB describes a formatted database (one or more volumes).
type DB struct {
	Base          string
	Title         string
	Kind          seq.Kind
	NumSeqs       int
	TotalResidues int64
	Volumes       []VolumeInfo
}

// IndexPath returns the index ('.pin') path of a volume base.
func IndexPath(base string) string { return base + ".pin" }

// HeaderPath returns the header ('.phr') path of a volume base.
func HeaderPath(base string) string { return base + ".phr" }

// SeqPath returns the sequence ('.psq') path of a volume base.
func SeqPath(base string) string { return base + ".psq" }

// aliasPath returns the alias ('.pal') path of a multi-volume database base.
func aliasPath(base string) string { return base + ".pal" }

// Format writes the formatted database for seqs under base in fs.
func Format(fs *vfs.FS, base string, seqs []*seq.Sequence, cfg Config) (*DB, error) {
	if len(seqs) == 0 {
		return nil, fmt.Errorf("formatdb: no sequences to format")
	}
	if cfg.Title == "" {
		cfg.Title = base
	}
	alpha := seq.AlphabetFor(cfg.Kind)
	for _, s := range seqs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("formatdb: %w", err)
		}
		if s.Alpha != alpha {
			return nil, fmt.Errorf("formatdb: sequence %q is %s, database is %s",
				s.ID, s.Alpha.Kind(), cfg.Kind)
		}
	}

	// Split into volumes by residue budget.
	var volumes [][]*seq.Sequence
	if cfg.VolumeMaxResidues <= 0 {
		volumes = [][]*seq.Sequence{seqs}
	} else {
		var cur []*seq.Sequence
		var budget int64
		for _, s := range seqs {
			if budget > 0 && budget+int64(s.Len()) > cfg.VolumeMaxResidues {
				volumes = append(volumes, cur)
				cur, budget = nil, 0
			}
			cur = append(cur, s)
			budget += int64(s.Len())
		}
		if len(cur) > 0 {
			volumes = append(volumes, cur)
		}
	}

	db := &DB{Base: base, Title: cfg.Title, Kind: cfg.Kind}
	firstOID := cfg.FirstOID
	for vi, vseqs := range volumes {
		vbase := base
		if len(volumes) > 1 {
			vbase = fmt.Sprintf("%s.%03d", base, vi)
		}
		info, err := writeVolume(fs, vbase, cfg.Title, cfg.Kind, vseqs, firstOID)
		if err != nil {
			return nil, err
		}
		db.Volumes = append(db.Volumes, *info)
		db.NumSeqs += info.NumSeqs
		db.TotalResidues += info.TotalResidues
		firstOID += info.NumSeqs
	}
	if len(volumes) > 1 {
		var alias bytes.Buffer
		fmt.Fprintf(&alias, "TITLE %s\nKIND %d\n", cfg.Title, cfg.Kind)
		for _, v := range db.Volumes {
			fmt.Fprintf(&alias, "DBLIST %s\n", v.Base)
		}
		fs.WriteFile(aliasPath(base), alias.Bytes())
	}
	return db, nil
}

func writeVolume(fs *vfs.FS, vbase, title string, kind seq.Kind, seqs []*seq.Sequence, firstOID int) (*VolumeInfo, error) {
	info := &VolumeInfo{Base: vbase, NumSeqs: len(seqs), FirstOID: firstOID}
	var hdr, body bytes.Buffer
	info.hdrOffsets = make([]int64, 0, len(seqs)+1)
	info.seqOffsets = make([]int64, 0, len(seqs)+1)
	for _, s := range seqs {
		info.hdrOffsets = append(info.hdrOffsets, int64(hdr.Len()))
		info.seqOffsets = append(info.seqOffsets, int64(body.Len()))
		hdr.WriteString(s.Defline())
		body.Write(s.Residues)
		info.TotalResidues += int64(s.Len())
		if s.Len() > info.MaxSeqLen {
			info.MaxSeqLen = s.Len()
		}
	}
	info.hdrOffsets = append(info.hdrOffsets, int64(hdr.Len()))
	info.seqOffsets = append(info.seqOffsets, int64(body.Len()))
	info.HdrSize = int64(hdr.Len())
	info.SeqSize = int64(body.Len())
	info.arrayBase = headerSize(len(title))

	fs.WriteFile(HeaderPath(vbase), hdr.Bytes())
	fs.WriteFile(SeqPath(vbase), body.Bytes())
	fs.WriteFile(IndexPath(vbase), encodeIndex(title, kind, info))
	return info, nil
}

// encodeIndex serializes the index file.
func encodeIndex(title string, kind seq.Kind, info *VolumeInfo) []byte {
	var buf bytes.Buffer
	w := func(v any) { binary.Write(&buf, binary.LittleEndian, v) } //nolint:errcheck
	w(uint32(Magic))
	w(uint32(Version))
	w(uint32(kind))
	w(uint32(info.NumSeqs))
	w(info.TotalResidues)
	w(uint32(info.MaxSeqLen))
	w(uint32(info.FirstOID))
	w(uint32(len(title)))
	buf.WriteString(title)
	for _, o := range info.hdrOffsets {
		w(o)
	}
	for _, o := range info.seqOffsets {
		w(o)
	}
	return buf.Bytes()
}

// headerSize returns the byte position where the offset arrays begin.
func headerSize(titleLen int) int64 {
	return 4 + 4 + 4 + 4 + 8 + 4 + 4 + 4 + int64(titleLen)
}

// decodeIndex parses an index file.
func decodeIndex(data []byte) (title string, kind seq.Kind, info *VolumeInfo, err error) {
	r := bytes.NewReader(data)
	var magic, version, kind32, numSeqs, maxLen, firstOID, titleLen uint32
	var total int64
	rd := func(v any) {
		if err == nil {
			err = binary.Read(r, binary.LittleEndian, v)
		}
	}
	rd(&magic)
	rd(&version)
	rd(&kind32)
	rd(&numSeqs)
	rd(&total)
	rd(&maxLen)
	rd(&firstOID)
	rd(&titleLen)
	if err != nil {
		return "", 0, nil, fmt.Errorf("formatdb: truncated index header: %w", err)
	}
	if magic != Magic {
		return "", 0, nil, fmt.Errorf("formatdb: bad magic %#x", magic)
	}
	if version != Version {
		return "", 0, nil, fmt.Errorf("formatdb: unsupported index version %d", version)
	}
	// A count is checked against the bytes left before it sizes anything.
	if int64(titleLen) > int64(r.Len()) {
		return "", 0, nil, fmt.Errorf("formatdb: truncated title: %d bytes, %d left", titleLen, r.Len())
	}
	tbuf := make([]byte, titleLen)
	rd(tbuf)
	n := int64(numSeqs) + 1
	if 2*8*n > int64(r.Len()) {
		return "", 0, nil, fmt.Errorf("formatdb: truncated offset arrays: 2×%d offsets, %d bytes left", n, r.Len())
	}
	info = &VolumeInfo{
		NumSeqs:       int(numSeqs),
		TotalResidues: total,
		MaxSeqLen:     int(maxLen),
		FirstOID:      int(firstOID),
		arrayBase:     headerSize(int(titleLen)),
		hdrOffsets:    make([]int64, n),
		seqOffsets:    make([]int64, n),
	}
	rd(info.hdrOffsets)
	rd(info.seqOffsets)
	for _, offs := range [][]int64{info.hdrOffsets, info.seqOffsets} {
		for i, o := range offs {
			if o < 0 || i > 0 && o < offs[i-1] {
				return "", 0, nil, fmt.Errorf("formatdb: offset array negative or decreasing at entry %d (%d)", i, o)
			}
		}
	}
	info.HdrSize = info.hdrOffsets[numSeqs]
	info.SeqSize = info.seqOffsets[numSeqs]
	return string(tbuf), seq.Kind(kind32), info, nil
}

// Open loads database metadata (single volume or alias + volumes).
func Open(fs *vfs.FS, base string) (*DB, error) {
	if alias, err := fs.ReadFile(aliasPath(base)); err == nil {
		return openAlias(fs, base, alias)
	}
	title, kind, info, err := loadVolume(fs, base)
	if err != nil {
		return nil, err
	}
	info.Base = base
	return &DB{
		Base: base, Title: title, Kind: kind,
		NumSeqs: info.NumSeqs, TotalResidues: info.TotalResidues,
		Volumes: []VolumeInfo{*info},
	}, nil
}

func openAlias(fs *vfs.FS, base string, alias []byte) (*DB, error) {
	db := &DB{Base: base}
	for _, line := range strings.Split(string(alias), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "TITLE "):
			db.Title = strings.TrimPrefix(line, "TITLE ")
		case strings.HasPrefix(line, "KIND "):
			if strings.TrimPrefix(line, "KIND ") == "1" {
				db.Kind = seq.DNA
			}
		case strings.HasPrefix(line, "DBLIST "):
			vbase := strings.TrimPrefix(line, "DBLIST ")
			_, _, info, err := loadVolume(fs, vbase)
			if err != nil {
				return nil, fmt.Errorf("formatdb: alias volume %q: %w", vbase, err)
			}
			info.Base = vbase
			db.Volumes = append(db.Volumes, *info)
			db.NumSeqs += info.NumSeqs
			db.TotalResidues += info.TotalResidues
		}
	}
	if len(db.Volumes) == 0 {
		return nil, fmt.Errorf("formatdb: alias file for %q lists no volumes", base)
	}
	return db, nil
}

func loadVolume(fs *vfs.FS, vbase string) (string, seq.Kind, *VolumeInfo, error) {
	data, err := fs.ReadFile(IndexPath(vbase))
	if err != nil {
		return "", 0, nil, err
	}
	return decodeIndex(data)
}

// SeqLen returns the residue count of sequence i in the volume.
func (v *VolumeInfo) SeqLen(i int) int { return int(v.seqOffsets[i+1] - v.seqOffsets[i]) }

// HdrOffsetArrayPos returns the byte position within the volume's index
// file of hdrOffsets[i]. pioBLAST workers read slices of the offset arrays
// directly from the shared index file with MPI-IO instead of shipping them
// through the master.
func (v *VolumeInfo) HdrOffsetArrayPos(i int) int64 {
	return v.arrayBase + 8*int64(i)
}

// SeqOffsetArrayPos returns the byte position of seqOffsets[i] in the
// volume's index file.
func (v *VolumeInfo) SeqOffsetArrayPos(i int) int64 {
	return v.arrayBase + 8*int64(v.NumSeqs+1) + 8*int64(i)
}

// DecodeOffsets parses a little-endian int64 array slice as read from an
// index file region.
func DecodeOffsets(buf []byte) []int64 {
	out := make([]int64, len(buf)/8)
	for i := range out {
		var v int64
		for b := 0; b < 8; b++ {
			v |= int64(buf[8*i+b]) << (8 * b)
		}
		out[i] = v
	}
	return out
}

// DecodeWithOffsets decodes records from raw header/sequence buffers using
// offset-array slices read from the index file. hdrOffs and seqOffs must
// have count+1 entries covering ordinals [oidFrom, oidFrom+count]; the
// buffers must start at hdrOffs[0] / seqOffs[0] in the global files.
func DecodeWithOffsets(oidFrom int, hdrOffs, seqOffs []int64, hdrBuf, seqBuf []byte) ([]Record, error) {
	if len(hdrOffs) == 0 || len(hdrOffs) != len(seqOffs) {
		return nil, fmt.Errorf("formatdb: offset arrays have %d/%d entries", len(hdrOffs), len(seqOffs))
	}
	count := len(hdrOffs) - 1
	if err := checkOffsets("header", oidFrom, hdrOffs, len(hdrBuf)); err != nil {
		return nil, err
	}
	if err := checkOffsets("sequence", oidFrom, seqOffs, len(seqBuf)); err != nil {
		return nil, err
	}
	out := make([]Record, 0, count)
	for i := 0; i < count; i++ {
		defline := string(hdrBuf[hdrOffs[i]-hdrOffs[0] : hdrOffs[i+1]-hdrOffs[0]])
		id, desc := fasta.SplitDefline(defline)
		out = append(out, Record{
			OID:      oidFrom + i,
			ID:       id,
			Defline:  desc,
			Residues: seqBuf[seqOffs[i]-seqOffs[0] : seqOffs[i+1]-seqOffs[0]],
		})
	}
	return out, nil
}

// checkOffsets rejects an offset slice that is negative, decreases or
// reaches past the n bytes read from its first offset, naming the ordinal of
// the first bad one.
func checkOffsets(what string, oidFrom int, offs []int64, n int) error {
	for i, o := range offs {
		if o < 0 || (i > 0 && o < offs[i-1]) || o-offs[0] > int64(n) {
			return fmt.Errorf("formatdb: %s offset %d of ordinal %d is negative, decreasing or past the %d bytes read",
				what, o, oidFrom+i, n)
		}
	}
	return nil
}

// Record is one decoded database sequence with its global ordinal.
type Record struct {
	OID     int
	ID      string
	Defline string
	// Residues are alphabet codes, aliasing the decoded buffer.
	Residues []byte
}

// ReadAll loads every record of the database (the sequential-search path
// and test helper).
func (db *DB) ReadAll(fs *vfs.FS) ([]Record, error) {
	var out []Record
	for vi := range db.Volumes {
		v := &db.Volumes[vi]
		hdr, err := fs.ReadFile(HeaderPath(v.Base))
		if err != nil {
			return nil, err
		}
		body, err := fs.ReadFile(SeqPath(v.Base))
		if err != nil {
			return nil, err
		}
		recs, err := DecodeWithOffsets(v.FirstOID, v.hdrOffsets, v.seqOffsets, hdr, body)
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}
