package formatdb

import (
	"fmt"

	"parblast/internal/seq"
	"parblast/internal/vfs"
)

// Extent is the portion of one volume belonging to a virtual fragment:
// a volume-local ordinal range plus the exact byte ranges a worker must
// read from the volume's header and sequence files.
type Extent struct {
	Volume  int // index into DB.Volumes
	From    int // volume-local ordinal, inclusive
	To      int // volume-local ordinal, exclusive
	HdrOff  int64
	HdrLen  int64
	SeqOff  int64
	SeqLen  int64
	OIDFrom int // global ordinal of From
}

// Part is one virtual fragment: a set of extents (usually one; more when
// the fragment spans a volume boundary).
type Part struct {
	Index   int
	Extents []Extent
}

// NumSeqs counts the sequences in the part.
func (p *Part) NumSeqs() int {
	n := 0
	for _, e := range p.Extents {
		n += e.To - e.From
	}
	return n
}

// Residues counts the residue bytes in the part.
func (p *Part) Residues() int64 {
	var n int64
	for _, e := range p.Extents {
		n += e.SeqLen
	}
	return n
}

// Partition splits the database into n virtual fragments balanced by
// residue count — pioBLAST's dynamic partitioning (§3.1). It never creates
// more parts than sequences; the returned slice may therefore be shorter
// than n for tiny databases.
func (db *DB) Partition(n int) ([]Part, error) {
	if n < 1 {
		return nil, fmt.Errorf("formatdb: partition count %d < 1", n)
	}
	if n > db.NumSeqs {
		n = db.NumSeqs
	}
	parts := make([]Part, 0, n)
	// Walk global ordinals, cutting when the running residue count passes
	// the ideal boundary for the next cut.
	target := func(k int) int64 { return db.TotalResidues * int64(k) / int64(n) }
	part := Part{Index: 0}
	var done int64
	cut := 1
	oid := 0
	for vi := range db.Volumes {
		v := &db.Volumes[vi]
		segStart := 0
		for i := 0; i < v.NumSeqs; i++ {
			done += int64(v.SeqLen(i))
			oid++
			remainingSeqs := db.NumSeqs - oid
			remainingParts := n - cut
			// Cut after sequence i if we've reached the target, or if we
			// must (exactly one sequence per remaining part).
			if cut < n && (done >= target(cut) || remainingSeqs == remainingParts) {
				part.Extents = append(part.Extents, v.extent(vi, segStart, i+1))
				parts = append(parts, part)
				part = Part{Index: cut}
				cut++
				segStart = i + 1
			}
		}
		if segStart < v.NumSeqs {
			part.Extents = append(part.Extents, v.extent(vi, segStart, v.NumSeqs))
		}
	}
	if len(part.Extents) > 0 {
		parts = append(parts, part)
	}
	if len(parts) != n {
		return nil, fmt.Errorf("formatdb: partition produced %d parts, wanted %d", len(parts), n)
	}
	return parts, nil
}

func (v *VolumeInfo) extent(vi, from, to int) Extent {
	return Extent{
		Volume:  vi,
		From:    from,
		To:      to,
		HdrOff:  v.hdrOffsets[from],
		HdrLen:  v.hdrOffsets[to] - v.hdrOffsets[from],
		SeqOff:  v.seqOffsets[from],
		SeqLen:  v.seqOffsets[to] - v.seqOffsets[from],
		OIDFrom: v.FirstOID + from,
	}
}

// PhysicalFragment implements mpiformatdb: it rewrites the database as n
// standalone single-volume databases named <base>.fragNNN, which the
// mpiBLAST baseline copies to worker-local storage. The fragment cut
// points match Partition, so "natural partitioning" is comparable across
// the two engines.
func (db *DB) PhysicalFragment(fs *vfs.FS, n int) ([]*DB, error) {
	parts, err := db.Partition(n)
	if err != nil {
		return nil, err
	}
	recs, err := db.ReadAll(fs)
	if err != nil {
		return nil, err
	}
	alpha := seq.AlphabetFor(db.Kind)
	frags := make([]*DB, 0, len(parts))
	oid := 0
	for _, p := range parts {
		count := p.NumSeqs()
		var seqs []*seq.Sequence
		for i := 0; i < count; i++ {
			r := recs[oid]
			seqs = append(seqs, &seq.Sequence{
				ID: r.ID, Description: r.Defline, Residues: r.Residues, Alpha: alpha,
			})
			oid++
		}
		base := fmt.Sprintf("%s.frag%03d", db.Base, p.Index)
		// FirstOID keeps fragment ordinals database-global so merged
		// results are unambiguous across fragments.
		frag, err := Format(fs, base, seqs, Config{Title: db.Title, Kind: db.Kind, FirstOID: oid - count})
		if err != nil {
			return nil, err
		}
		frags = append(frags, frag)
	}
	return frags, nil
}

// FragmentFiles lists the file paths of one single-volume database — what
// the baseline copies to local disks.
func FragmentFiles(base string) []string {
	return []string{indexPath(base), hdrPath(base), seqPath(base)}
}
