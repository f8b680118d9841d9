// Package mpiio implements an MPI-IO-style parallel I/O layer over the
// simulated cluster storage: shared-file handles, file views (displacement
// lists), independent reads/writes, and collective reads and writes using
// the two-phase (aggregator) algorithm that ROMIO made standard.
//
// The collectives are real data-shuffling protocols executed over the
// simulated MPI runtime: ranks exchange actual bytes with aggregator ranks,
// and each aggregator issues one large sequential access per coalesced
// span (reads additionally sieve through small holes). Both the data
// movement and the virtual-time costs therefore emerge from the same code
// path the paper's §3 describes, including the contrast with many small
// independent strided accesses.
package mpiio

import (
	"fmt"

	"parblast/internal/mpi"
	"parblast/internal/vfs"
)

// Tag space reserved for the I/O layer's internal messages; engine
// protocols must stay below this. Mirrors mpi.ShuffleTagBase so that
// communication accounting can separate shuffle from protocol traffic.
const tagBase = mpi.ShuffleTagBase

// Segment is one contiguous extent of a file view.
type Segment struct {
	Offset int64
	Length int64
}

// View is an ordered list of disjoint file extents visible to one rank,
// the moral equivalent of an MPI file view built from an indexed filetype.
type View struct {
	Segments []Segment
}

// TotalLength sums the segment lengths.
func (v View) TotalLength() int64 {
	var n int64
	for _, s := range v.Segments {
		n += s.Length
	}
	return n
}

// Validate checks ordering, positivity, and disjointness.
func (v View) Validate() error {
	var prevEnd int64 = -1
	for i, s := range v.Segments {
		if s.Offset < 0 || s.Length < 0 {
			return fmt.Errorf("mpiio: segment %d has negative offset/length (%d,%d)", i, s.Offset, s.Length)
		}
		if s.Offset < prevEnd {
			return fmt.Errorf("mpiio: segment %d at %d overlaps or precedes previous end %d", i, s.Offset, prevEnd)
		}
		prevEnd = s.Offset + s.Length
	}
	return nil
}

// File is a per-rank handle on a shared file.
type File struct {
	rank  *mpi.Rank
	fs    *vfs.FS
	f     *vfs.File
	view  View
	hints Hints
	tuner *Tuner
}

// Open returns a handle on an existing file.
func Open(rank *mpi.Rank, fs *vfs.FS, path string) (*File, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	rank.Metrics().Counter("mpiio.opens", rank.ID()).Inc()
	return &File{rank: rank, fs: fs, f: f}, nil
}

// OpenOrCreate returns a handle, creating the file if needed (every rank of
// a parallel job opens the shared output file this way).
func OpenOrCreate(rank *mpi.Rank, fs *vfs.FS, path string) *File {
	rank.Metrics().Counter("mpiio.opens", rank.ID()).Inc()
	return &File{rank: rank, fs: fs, f: fs.OpenOrCreate(path)}
}

// Size reports the current file size (metadata only, no time charged).
func (f *File) Size() int64 { return f.f.Size() }

// Reserve makes room for the file to reach n bytes without copying what it
// holds (vfs.File.Reserve); host memory only, no time charged.
func (f *File) Reserve(n int64) { f.f.Reserve(n) }

// SetView installs the rank's file view for subsequent collective writes.
func (f *File) SetView(v View) error {
	if err := v.Validate(); err != nil {
		return err
	}
	f.view = v
	if reg := f.rank.Metrics(); reg != nil {
		reg.Counter("mpiio.view_sets", f.rank.ID()).Inc()
		reg.Counter("mpiio.view_segments", f.rank.ID()).Add(int64(len(v.Segments)))
	}
	return nil
}

// ReadAt performs an independent (non-collective) read of n bytes at off,
// charging the storage cost to the calling rank. Short data at EOF yields
// a short slice.
func (f *File) ReadAt(off, n int64) []byte {
	buf := make([]byte, n)
	got := f.f.ReadAt(buf, off)
	f.rank.IO(f.fs, int64(got))
	if reg := f.rank.Metrics(); reg != nil {
		reg.Counter("mpiio.reads", f.rank.ID()).Inc()
		reg.Counter("mpiio.read_bytes", f.rank.ID()).Add(int64(got))
	}
	return buf[:got]
}

// WriteAt performs an independent write, charging the calling rank.
func (f *File) WriteAt(data []byte, off int64) {
	f.f.WriteAt(data, off)
	f.rank.IO(f.fs, int64(len(data)))
	if reg := f.rank.Metrics(); reg != nil {
		reg.Counter("mpiio.independent_writes", f.rank.ID()).Inc()
		reg.Counter("mpiio.write_bytes", f.rank.ID()).Add(int64(len(data)))
	}
}

// WriteIndependent writes data through the rank's view using one
// independent write per segment — the strided-small-writes pattern the
// two-phase algorithm exists to avoid. Used as an ablation baseline.
func (f *File) WriteIndependent(data []byte) error {
	if int64(len(data)) != f.view.TotalLength() {
		return fmt.Errorf("mpiio: data length %d != view length %d", len(data), f.view.TotalLength())
	}
	var pos int64
	for _, s := range f.view.Segments {
		if s.Length == 0 {
			continue // a zero-length segment must not pay an operation's latency
		}
		f.WriteAt(data[pos:pos+s.Length], s.Offset)
		pos += s.Length
	}
	return nil
}

// ReadIndependent reads the rank's view using one independent read per
// segment — the strided-small-reads pattern two-phase collective reads
// exist to avoid. Used as an ablation baseline mirroring WriteIndependent.
func (f *File) ReadIndependent() []byte {
	out := make([]byte, 0, f.view.TotalLength())
	for _, s := range f.view.Segments {
		if s.Length == 0 {
			continue // a zero-length segment must not pay an operation's latency
		}
		out = append(out, f.ReadAt(s.Offset, s.Length)...)
	}
	return out
}

// AsyncRead is an in-flight independent read started with StartReadAt: the
// data is already captured, but the storage time has not been charged —
// Wait settles it, letting callers overlap the access with compute.
type AsyncRead struct {
	rank *mpi.Rank
	h    *mpi.IOHandle
	buf  []byte
}

// StartReadAt begins an asynchronous independent read of n bytes at off.
// The storage channel is booked from the rank's current virtual time, but
// the clock does not advance until Wait — so a read issued before a search
// costs max(io, compute), the overlap pioBLAST's prefetch pipeline exploits.
func (f *File) StartReadAt(off, n int64) *AsyncRead {
	buf := make([]byte, n)
	got := f.f.ReadAt(buf, off)
	h := f.rank.StartIO(f.fs, int64(got))
	if reg := f.rank.Metrics(); reg != nil {
		reg.Counter("mpiio.async_reads", f.rank.ID()).Inc()
		reg.Counter("mpiio.read_bytes", f.rank.ID()).Add(int64(got))
	}
	return &AsyncRead{rank: f.rank, h: h, buf: buf[:got]}
}

// Wait blocks until the read's virtual completion time and returns the
// data. Safe to call more than once; later calls are free.
func (a *AsyncRead) Wait() []byte {
	a.rank.Wait(a.h)
	return a.buf
}
