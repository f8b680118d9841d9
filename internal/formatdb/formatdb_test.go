package formatdb

import (
	"bytes"
	"testing"
	"testing/quick"

	"parblast/internal/seq"
	"parblast/internal/vfs"
	"parblast/internal/workload"
)

func testSeqs(t *testing.T, n, meanLen int) []*seq.Sequence {
	t.Helper()
	seqs, err := workload.SynthesizeDB(workload.DBConfig{
		Kind: seq.Protein, NumSeqs: n, MeanLen: meanLen, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return seqs
}

func TestFormatAndOpenRoundTrip(t *testing.T) {
	fs := vfs.MustNew(vfs.RAMDisk())
	seqs := testSeqs(t, 50, 120)
	db, err := Format(fs, "nr", seqs, Config{Title: "test nr", Kind: seq.Protein})
	if err != nil {
		t.Fatal(err)
	}
	if db.NumSeqs != 50 || len(db.Volumes) != 1 {
		t.Fatalf("db meta: %+v", db)
	}
	back, err := Open(fs, "nr")
	if err != nil {
		t.Fatal(err)
	}
	if back.Title != "test nr" || back.NumSeqs != 50 || back.TotalResidues != db.TotalResidues {
		t.Fatalf("reopened meta differs: %+v", back)
	}
	recs, err := back.ReadAll(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 50 {
		t.Fatalf("%d records", len(recs))
	}
	for i, r := range recs {
		if r.OID != i {
			t.Fatalf("record %d has OID %d", i, r.OID)
		}
		if r.ID != seqs[i].ID || !bytes.Equal(r.Residues, seqs[i].Residues) {
			t.Fatalf("record %d mutated in round trip", i)
		}
		if r.Defline != seqs[i].Description {
			t.Fatalf("record %d description %q != %q", i, r.Defline, seqs[i].Description)
		}
	}
}

func TestFormatMultiVolume(t *testing.T) {
	fs := vfs.MustNew(vfs.RAMDisk())
	seqs := testSeqs(t, 40, 100)
	total := workload.TotalResidues(seqs)
	db, err := Format(fs, "nt", seqs, Config{Kind: seq.Protein, VolumeMaxResidues: total / 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Volumes) < 3 {
		t.Fatalf("expected ≥3 volumes, got %d", len(db.Volumes))
	}
	// FirstOIDs must tile 0..NumSeqs.
	next := 0
	for _, v := range db.Volumes {
		if v.FirstOID != next {
			t.Fatalf("volume FirstOID %d, want %d", v.FirstOID, next)
		}
		next += v.NumSeqs
	}
	if next != db.NumSeqs {
		t.Fatalf("volumes cover %d of %d seqs", next, db.NumSeqs)
	}
	back, err := Open(fs, "nt")
	if err != nil {
		t.Fatal(err)
	}
	if back.NumSeqs != 40 || len(back.Volumes) != len(db.Volumes) {
		t.Fatalf("alias reopen wrong: %+v", back)
	}
	recs, err := back.ReadAll(fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if recs[i].OID != i || !bytes.Equal(recs[i].Residues, seqs[i].Residues) {
			t.Fatalf("multi-volume record %d wrong", i)
		}
	}
}

func TestFormatErrors(t *testing.T) {
	fs := vfs.MustNew(vfs.RAMDisk())
	if _, err := Format(fs, "x", nil, Config{}); err == nil {
		t.Fatal("empty database accepted")
	}
	dna := &seq.Sequence{ID: "d", Residues: []byte{0, 1}, Alpha: seq.DNAAlphabet}
	if _, err := Format(fs, "x", []*seq.Sequence{dna}, Config{Kind: seq.Protein}); err == nil {
		t.Fatal("alphabet mismatch accepted")
	}
	if _, err := Open(fs, "missing"); err == nil {
		t.Fatal("open of missing db succeeded")
	}
}

func TestIndexCorruption(t *testing.T) {
	fs := vfs.MustNew(vfs.RAMDisk())
	seqs := testSeqs(t, 5, 50)
	if _, err := Format(fs, "c", seqs, Config{Kind: seq.Protein}); err != nil {
		t.Fatal(err)
	}
	// Bad magic.
	data, _ := fs.ReadFile("c.pin")
	data[0] ^= 0xFF
	fs.WriteFile("c.pin", data)
	if _, err := Open(fs, "c"); err == nil {
		t.Fatal("corrupt magic accepted")
	}
	// Truncated index.
	data[0] ^= 0xFF
	fs.WriteFile("c.pin", data[:20])
	if _, err := Open(fs, "c"); err == nil {
		t.Fatal("truncated index accepted")
	}
}

func TestOffsetsConsistent(t *testing.T) {
	fs := vfs.MustNew(vfs.RAMDisk())
	seqs := testSeqs(t, 30, 80)
	db, err := Format(fs, "o", seqs, Config{Kind: seq.Protein})
	if err != nil {
		t.Fatal(err)
	}
	v := &db.Volumes[0]
	for i := 0; i < v.NumSeqs; i++ {
		if v.SeqLen(i) != seqs[i].Len() {
			t.Fatalf("seq %d length %d != %d", i, v.SeqLen(i), seqs[i].Len())
		}
		if v.hdrOffsets[i+1] < v.hdrOffsets[i] || v.seqOffsets[i+1] < v.seqOffsets[i] {
			t.Fatalf("offsets not monotone at %d", i)
		}
	}
	if v.seqOffsets[v.NumSeqs] != v.SeqSize || v.hdrOffsets[v.NumSeqs] != v.HdrSize {
		t.Fatal("end sentinels disagree with file sizes")
	}
}

func TestPartitionCoversExactly(t *testing.T) {
	fs := vfs.MustNew(vfs.RAMDisk())
	seqs := testSeqs(t, 100, 90)
	db, err := Format(fs, "p", seqs, Config{Kind: seq.Protein})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 7, 31, 61, 96, 100} {
		parts, err := db.Partition(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(parts) != n {
			t.Fatalf("n=%d: got %d parts", n, len(parts))
		}
		// Every OID appears exactly once, in order, with correct extents.
		oid := 0
		var residues int64
		for pi, p := range parts {
			if p.Index != pi {
				t.Fatalf("part %d has index %d", pi, p.Index)
			}
			if p.NumSeqs() == 0 {
				t.Fatalf("n=%d: part %d empty", n, pi)
			}
			for _, e := range p.Extents {
				if e.OIDFrom != oid {
					t.Fatalf("n=%d part %d: extent OIDFrom %d, want %d", n, pi, e.OIDFrom, oid)
				}
				oid += e.To - e.From
				residues += e.SeqLen
			}
		}
		if oid != db.NumSeqs || residues != db.TotalResidues {
			t.Fatalf("n=%d: parts cover %d seqs / %d residues, want %d / %d",
				n, oid, residues, db.NumSeqs, db.TotalResidues)
		}
	}
}

func TestPartitionBalance(t *testing.T) {
	fs := vfs.MustNew(vfs.RAMDisk())
	seqs := testSeqs(t, 400, 100)
	db, err := Format(fs, "b", seqs, Config{Kind: seq.Protein})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := db.Partition(16)
	if err != nil {
		t.Fatal(err)
	}
	ideal := float64(db.TotalResidues) / 16
	for _, p := range parts {
		ratio := float64(p.Residues()) / ideal
		if ratio < 0.5 || ratio > 1.5 {
			t.Fatalf("part %d holds %.0f%% of ideal share", p.Index, ratio*100)
		}
	}
}

func TestPartitionMultiVolumeSpansBoundaries(t *testing.T) {
	fs := vfs.MustNew(vfs.RAMDisk())
	seqs := testSeqs(t, 60, 100)
	total := workload.TotalResidues(seqs)
	db, err := Format(fs, "mv", seqs, Config{Kind: seq.Protein, VolumeMaxResidues: total / 4})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := db.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	oid := 0
	for _, p := range parts {
		for _, e := range p.Extents {
			if e.OIDFrom != oid {
				t.Fatalf("extent OIDFrom %d, want %d", e.OIDFrom, oid)
			}
			oid += e.To - e.From
		}
	}
	if oid != 60 {
		t.Fatalf("parts cover %d", oid)
	}
}

func TestDecodeWithOffsetsMatchesReadAll(t *testing.T) {
	fs := vfs.MustNew(vfs.RAMDisk())
	seqs := testSeqs(t, 64, 70)
	db, err := Format(fs, "d", seqs, Config{Kind: seq.Protein})
	if err != nil {
		t.Fatal(err)
	}
	v := &db.Volumes[0]
	hdr, _ := fs.ReadFile("d.phr")
	body, _ := fs.ReadFile("d.psq")
	parts, _ := db.Partition(5)
	var all []Record
	for _, p := range parts {
		for _, e := range p.Extents {
			recs, err := DecodeWithOffsets(e.OIDFrom, v.hdrOffsets[e.From:e.To+1], v.seqOffsets[e.From:e.To+1],
				hdr[e.HdrOff:e.HdrOff+e.HdrLen], body[e.SeqOff:e.SeqOff+e.SeqLen])
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, recs...)
		}
	}
	ref, _ := db.ReadAll(fs)
	if len(all) != len(ref) {
		t.Fatalf("decoded %d, want %d", len(all), len(ref))
	}
	for i := range ref {
		if all[i].OID != ref[i].OID || all[i].ID != ref[i].ID ||
			!bytes.Equal(all[i].Residues, ref[i].Residues) {
			t.Fatalf("record %d differs between extent decode and ReadAll", i)
		}
	}
}

func TestDecodeWithOffsetsErrors(t *testing.T) {
	fs := vfs.MustNew(vfs.RAMDisk())
	seqs := testSeqs(t, 5, 40)
	db, _ := Format(fs, "e", seqs, Config{Kind: seq.Protein})
	v := &db.Volumes[0]
	if _, err := DecodeWithOffsets(0, v.hdrOffsets, v.seqOffsets[:3], nil, nil); err == nil {
		t.Fatal("offset slices of different ranges accepted")
	}
	if _, err := DecodeWithOffsets(0, v.hdrOffsets[:3], v.seqOffsets[:3], []byte{1}, []byte{1}); err == nil {
		t.Fatal("short buffers accepted")
	}
}

func TestPhysicalFragmentation(t *testing.T) {
	fs := vfs.MustNew(vfs.RAMDisk())
	seqs := testSeqs(t, 50, 90)
	db, err := Format(fs, "f", seqs, Config{Title: "fragme", Kind: seq.Protein})
	if err != nil {
		t.Fatal(err)
	}
	frags, err := db.PhysicalFragment(fs, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 7 {
		t.Fatalf("%d fragments", len(frags))
	}
	// Re-open each fragment from disk; concatenation must equal the DB,
	// including global OIDs.
	var all []Record
	for i, f := range frags {
		re, err := Open(fs, f.Base)
		if err != nil {
			t.Fatalf("fragment %d: %v", i, err)
		}
		recs, err := re.ReadAll(fs)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, recs...)
		for _, path := range FragmentFiles(f.Base) {
			if _, err := fs.Open(path); err != nil {
				t.Fatalf("fragment file %s missing", path)
			}
		}
	}
	ref, _ := db.ReadAll(fs)
	if len(all) != len(ref) {
		t.Fatalf("fragments hold %d records, want %d", len(all), len(ref))
	}
	for i := range ref {
		if all[i].OID != i || all[i].ID != ref[i].ID || !bytes.Equal(all[i].Residues, ref[i].Residues) {
			t.Fatalf("fragmented record %d differs (OID=%d)", i, all[i].OID)
		}
	}
}

func TestPartitionInvalid(t *testing.T) {
	fs := vfs.MustNew(vfs.RAMDisk())
	db, _ := Format(fs, "i", testSeqs(t, 5, 40), Config{Kind: seq.Protein})
	if _, err := db.Partition(0); err == nil {
		t.Fatal("zero parts accepted")
	}
	// More parts than sequences: clamps to NumSeqs.
	parts, err := db.Partition(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 5 {
		t.Fatalf("clamped to %d parts", len(parts))
	}
}

func TestPartitionQuickProperty(t *testing.T) {
	fs := vfs.MustNew(vfs.RAMDisk())
	seqs := testSeqs(t, 80, 60)
	db, _ := Format(fs, "q", seqs, Config{Kind: seq.Protein})
	f := func(nRaw uint8) bool {
		n := 1 + int(nRaw)%80
		parts, err := db.Partition(n)
		if err != nil || len(parts) != n {
			return false
		}
		oid := 0
		for _, p := range parts {
			if p.NumSeqs() == 0 {
				return false
			}
			for _, e := range p.Extents {
				if e.OIDFrom != oid {
					return false
				}
				oid += e.To - e.From
			}
		}
		return oid == db.NumSeqs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Residues counts the residue bytes in the part.
func (p *Part) Residues() int64 {
	var n int64
	for _, e := range p.Extents {
		n += e.SeqLen
	}
	return n
}
