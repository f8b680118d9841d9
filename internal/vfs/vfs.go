// Package vfs simulates cluster storage: a shared parallel file system and
// per-node local disks, with a deterministic contention-aware cost model.
//
// Data is held in memory and is byte-exact — files written through the
// MPI-IO layer can be read back and compared, which is how the reproduction
// verifies that pioBLAST's collective output equals mpiBLAST's serial
// output. Time is modelled separately: every access reports a completion
// time computed from the storage's latency, per-stream bandwidth, and a
// channel pool that captures how many concurrent streams the file system
// can sustain before accesses queue (XFS-like: many; NFS-like: one).
package vfs

import (
	"fmt"
	"sort"
	"sync"

	"parblast/internal/metrics"
)

// Profile holds the performance characteristics of one storage system.
type Profile struct {
	// Name appears in diagnostics ("xfs", "nfs", "local").
	Name string
	// Latency is the per-operation setup cost in seconds.
	Latency float64
	// Bandwidth is the per-stream transfer rate in bytes/second.
	Bandwidth float64
	// Channels is how many concurrent streams proceed at full bandwidth;
	// further concurrent accesses queue behind the busiest channel.
	Channels int
}

// SeekEquivalentBytes is the transfer volume that costs as much time as
// one operation's setup latency (latency × bandwidth): the break-even
// hole size for data sieving — transferring a smaller hole is cheaper
// than paying a second operation's latency. Truncated toward zero, so
// near-zero-latency profiles yield 0; callers needing a positive gap
// must floor it.
func (p Profile) SeekEquivalentBytes() int64 {
	return int64(p.Latency * p.Bandwidth)
}

// Validate rejects unusable profiles.
func (p Profile) Validate() error {
	if p.Latency < 0 || p.Bandwidth <= 0 || p.Channels < 1 {
		return fmt.Errorf("vfs: invalid profile %+v", p)
	}
	return nil
}

// XFSLike models the ORNL Altix's SGI XFS: a high-bandwidth parallel file
// system that scales to many concurrent streams.
func XFSLike() Profile {
	return Profile{Name: "xfs", Latency: 3e-4, Bandwidth: 200e6, Channels: 32}
}

// NFSLike models the NCSU blade cluster's NFS server: one modest server
// that serializes concurrent clients.
func NFSLike() Profile {
	return Profile{Name: "nfs", Latency: 5e-3, Bandwidth: 30e6, Channels: 1}
}

// LocalDisk models a node-local IDE/SCSI disk.
func LocalDisk() Profile {
	return Profile{Name: "local", Latency: 8e-3, Bandwidth: 50e6, Channels: 1}
}

// RAMDisk models in-memory staging (effectively free I/O); useful for
// ablations that isolate protocol costs from storage costs.
func RAMDisk() Profile {
	return Profile{Name: "ram", Latency: 1e-6, Bandwidth: 4e9, Channels: 64}
}

// FaultPlan schedules deterministic transient I/O errors: selected
// accesses fail Failures times before succeeding, and each failed attempt
// costs the profile latency plus an exponentially growing backoff wait.
// Which accesses fault is decided by operation ordinal (1-based, in the
// file system's deterministic virtual-time access order), so a plan always
// reproduces the same retry history.
type FaultPlan struct {
	// FirstOp is the 1-based ordinal of the first faulted access.
	FirstOp int64
	// Every faults each Every-th access from FirstOp on (0 = only FirstOp).
	Every int64
	// Count caps the number of faulted accesses (0 = no cap).
	Count int64
	// Failures is how many attempts fail before the access succeeds.
	Failures int
	// Backoff is the wait after the first failed attempt, doubling per
	// subsequent retry (exponential backoff).
	Backoff float64
}

// Validate rejects unusable plans.
func (p FaultPlan) Validate() error {
	if p.FirstOp < 1 || p.Every < 0 || p.Count < 0 || p.Failures < 0 || p.Backoff < 0 {
		return fmt.Errorf("vfs: invalid fault plan %+v", p)
	}
	return nil
}

// FS is one simulated file system: a namespace of in-memory files plus a
// channel pool for timing.
type FS struct {
	profile Profile

	mu       sync.Mutex
	files    map[string]*File
	channels []float64 // busy-until time per channel
	// watermark is the latest start time any access of the current run
	// asked for. Channels are granted in call order, so the timing model is
	// exact only while callers arrive in virtual-time order; an access that
	// starts below the watermark breaks that and is counted, never hidden.
	watermark float64
	// stats
	bytesRead    int64
	bytesWritten int64
	ops          int64
	// fault injection
	faults      *FaultPlan
	faultedOps  int64
	retries     int64
	backoffTime float64
	// telemetry handles (nil-safe no-ops until SetMetrics)
	inst fsInstruments
}

// fsInstruments caches the file system's telemetry handles so hot paths
// never hit the registry's lookup map. All fields are nil-safe: an FS
// without SetMetrics records nothing.
type fsInstruments struct {
	ops         *metrics.Counter
	readBytes   *metrics.Counter
	writeBytes  *metrics.Counter
	faultedOps  *metrics.Counter
	retries     *metrics.Counter
	backoff     *metrics.Gauge
	accessBytes *metrics.Histogram
	inversions  *metrics.Counter
}

// SetMetrics attaches the file system to a telemetry registry. Series are
// named vfs.<profile>.* and labelled RankGlobal, since a file system is a
// shared resource not owned by any one rank. Metrics never advance virtual
// clocks, so attaching them cannot change any access's completion time.
func (fs *FS) SetMetrics(reg *metrics.Registry) {
	prefix := "vfs." + fs.profile.Name + "."
	inst := fsInstruments{}
	if reg != nil {
		inst = fsInstruments{
			ops:         reg.Counter(prefix+"ops", metrics.RankGlobal),
			readBytes:   reg.Counter(prefix+"read_bytes", metrics.RankGlobal),
			writeBytes:  reg.Counter(prefix+"write_bytes", metrics.RankGlobal),
			faultedOps:  reg.Counter(prefix+"faulted_ops", metrics.RankGlobal),
			retries:     reg.Counter(prefix+"fault_retries", metrics.RankGlobal),
			backoff:     reg.Gauge(prefix+"backoff_s", metrics.RankGlobal),
			accessBytes: reg.Histogram(prefix+"access_bytes", metrics.RankGlobal, metrics.SizeBuckets()),
			inversions:  reg.Counter(prefix+"order_inversions", metrics.RankGlobal),
		}
	}
	fs.mu.Lock()
	fs.inst = inst
	fs.mu.Unlock()
}

// New creates an empty file system with the given performance profile.
func New(p Profile) (*FS, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &FS{
		profile:  p,
		files:    make(map[string]*File),
		channels: make([]float64, p.Channels),
	}, nil
}

// MustNew is New for known-good presets.
func MustNew(p Profile) *FS {
	fs, err := New(p)
	if err != nil {
		panic(err)
	}
	return fs
}

// Profile returns the performance profile.
func (fs *FS) Profile() Profile { return fs.profile }

// BeginRun forgets the previous run's timing state — every channel is free
// and the order watermark is back at zero — because a new world's clocks
// start at zero again. Files, Stats and the fault plan's access ordinals
// stay cumulative.
func (fs *FS) BeginRun() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	clear(fs.channels)
	fs.watermark = 0
}

// Access charges one I/O of the given size starting no earlier than start,
// and returns its completion time. It implements the channel-pool queueing
// model: the operation grabs the earliest-free channel. Callers must arrive
// in non-decreasing start order within a run (mpi's scheduler guarantees it);
// a call that does not is counted in vfs.<profile>.order_inversions.
func (fs *FS) Access(start float64, size int64) float64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.accessLocked(start, size)
}

func (fs *FS) accessLocked(start float64, size int64) float64 {
	fs.ops++
	fs.inst.ops.Inc()
	fs.inst.accessBytes.Observe(float64(size))
	if start < fs.watermark {
		fs.inst.inversions.Inc()
	} else {
		fs.watermark = start
	}
	// Earliest-free channel.
	best := 0
	for i := 1; i < len(fs.channels); i++ {
		if fs.channels[i] < fs.channels[best] {
			best = i
		}
	}
	begin := start
	if fs.channels[best] > begin {
		begin = fs.channels[best]
	}
	// Transient faults: the op pays each failed attempt's latency plus an
	// exponentially growing backoff wait before the attempt that succeeds.
	if fs.faultedLocked() {
		fs.faultedOps++
		fs.inst.faultedOps.Inc()
		delay := fs.faults.Backoff
		for i := 0; i < fs.faults.Failures; i++ {
			fs.retries++
			fs.backoffTime += delay
			fs.inst.retries.Inc()
			fs.inst.backoff.Add(delay)
			begin += fs.profile.Latency + delay
			delay *= 2
		}
	}
	end := begin + fs.profile.Latency + float64(size)/fs.profile.Bandwidth
	fs.channels[best] = end
	return end
}

// faultedLocked decides whether the current access (ordinal fs.ops,
// already incremented) is scheduled to fault.
func (fs *FS) faultedLocked() bool {
	p := fs.faults
	if p == nil || p.Failures == 0 || fs.ops < p.FirstOp {
		return false
	}
	if p.Count > 0 && fs.faultedOps >= p.Count {
		return false
	}
	d := fs.ops - p.FirstOp
	if p.Every > 0 {
		return d%p.Every == 0
	}
	return d == 0
}

// InjectFaults installs a transient-error schedule (replacing any previous
// one). Pass a zero-Failures plan to disable injection.
func (fs *FS) InjectFaults(p FaultPlan) error {
	if err := p.Validate(); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.faults = &p
	return nil
}

// FaultStats reports how many accesses faulted, the total failed attempts
// (retries), and the cumulative backoff wait charged.
func (fs *FS) FaultStats() (faultedOps, retries int64, backoffTime float64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.faultedOps, fs.retries, fs.backoffTime
}

// Stats reports cumulative operation counts and byte volumes.
func (fs *FS) Stats() (ops, bytesRead, bytesWritten int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.ops, fs.bytesRead, fs.bytesWritten
}

// Create makes (or truncates) a file and returns it. An existing file is
// truncated IN PLACE: handles other ranks already hold keep addressing the
// same file (previously a fresh File object replaced the map entry and old
// handles silently wrote to an orphan).
func (fs *FS) Create(path string) *File {
	fs.mu.Lock()
	f, ok := fs.files[path]
	if !ok {
		f = &File{name: path, fs: fs}
		fs.files[path] = f
		fs.mu.Unlock()
		return f
	}
	// Truncate outside fs.mu: File methods take f.mu before fs.mu (for
	// stats), so holding fs.mu here would invert the lock order.
	fs.mu.Unlock()
	f.Truncate(0)
	return f
}

// Open returns an existing file.
func (fs *FS) Open(path string) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("vfs: %s: file %q does not exist", fs.profile.Name, path)
	}
	return f, nil
}

// OpenOrCreate returns the file, creating it when absent (the shared output
// file is opened this way by every rank).
func (fs *FS) OpenOrCreate(path string) *File {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f, ok := fs.files[path]; ok {
		return f
	}
	f := &File{name: path, fs: fs}
	fs.files[path] = f
	return f
}

// Remove deletes a file.
func (fs *FS) Remove(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[path]; !ok {
		return fmt.Errorf("vfs: %s: remove %q: no such file", fs.profile.Name, path)
	}
	delete(fs.files, path)
	return nil
}

// List returns all paths in sorted order.
func (fs *FS) List() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]string, 0, len(fs.files))
	for p := range fs.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// WriteFile creates path with the given contents (no time charged; use the
// mpiio layer for timed access). Handy for test and staging setup.
func (fs *FS) WriteFile(path string, data []byte) {
	f := fs.Create(path)
	f.WriteAt(data, 0)
}

// ReadFile returns a copy of the file's contents (no time charged).
func (fs *FS) ReadFile(path string) ([]byte, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	return f.Snapshot(), nil
}

// File is an in-memory file with positional access.
type File struct {
	name string
	fs   *FS

	mu   sync.Mutex
	data []byte
}

// Name returns the path the file was created with.
func (f *File) Name() string { return f.name }

// Size returns the current length.
func (f *File) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.data))
}

// ReadAt copies len(p) bytes from offset off. Short reads at EOF return the
// available bytes and no error; reads fully past EOF return 0.
func (f *File) ReadAt(p []byte, off int64) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off >= int64(len(f.data)) {
		return 0
	}
	n := copy(p, f.data[off:])
	f.fs.mu.Lock()
	f.fs.bytesRead += int64(n)
	inst := f.fs.inst
	f.fs.mu.Unlock()
	inst.readBytes.Add(int64(n))
	return n
}

// WriteAt stores p at offset off, growing (zero-filling) as needed.
func (f *File) WriteAt(p []byte, off int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	end := off + int64(len(p))
	if end > int64(len(f.data)) {
		f.extendLocked(end)
	}
	copy(f.data[off:end], p)
	f.fs.mu.Lock()
	f.fs.bytesWritten += int64(len(p))
	inst := f.fs.inst
	f.fs.mu.Unlock()
	inst.writeBytes.Add(int64(len(p)))
}

// Truncate sets the file length.
func (f *File) Truncate(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n <= int64(len(f.data)) {
		f.data = f.data[:n]
		return
	}
	f.extendLocked(n)
}

// extendLocked grows the file to n > len bytes, the new tail zeroed. Capacity
// at least doubles when it runs out, so a file extended piecewise — in
// whatever order its writers happen to run — costs O(final size) allocation,
// not one whole-file copy per extension. Bytes that a Truncate cut off and
// the spare capacity still holds are cleared before they are exposed again.
func (f *File) extendLocked(n int64) {
	old := len(f.data)
	if n <= int64(cap(f.data)) {
		f.data = f.data[:n]
		clear(f.data[old:])
		return
	}
	c := 2 * int64(cap(f.data))
	if c < n {
		c = n
	}
	grown := make([]byte, n, c)
	copy(grown, f.data)
	f.data = grown
}

// Snapshot returns a copy of the contents.
func (f *File) Snapshot() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]byte, len(f.data))
	copy(out, f.data)
	return out
}

// Node bundles the storage visible to one cluster node: the shared file
// system (same object for every node) and an optional local disk.
type Node struct {
	Shared *FS
	Local  *FS // nil when the platform has no user-accessible local disk
}

// Cluster builds the storage layout for n nodes: one shared FS instance
// and, when localProfile is non-nil, a private local disk per node.
func Cluster(n int, shared Profile, localProfile *Profile) ([]*Node, error) {
	sharedFS, err := New(shared)
	if err != nil {
		return nil, err
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = &Node{Shared: sharedFS}
		if localProfile != nil {
			local, err := New(*localProfile)
			if err != nil {
				return nil, err
			}
			nodes[i].Local = local
		}
	}
	return nodes, nil
}
