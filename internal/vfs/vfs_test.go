package vfs

import (
	"bytes"
	"testing"
	"testing/quick"

	"parblast/internal/metrics"
)

func TestProfiles(t *testing.T) {
	for _, p := range []Profile{XFSLike(), NFSLike(), LocalDisk(), RAMDisk()} {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	if err := (Profile{Bandwidth: 0, Channels: 1}).Validate(); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if err := (Profile{Bandwidth: 1, Channels: 0}).Validate(); err == nil {
		t.Fatal("zero channels accepted")
	}
}

func TestFileReadWrite(t *testing.T) {
	fs := MustNew(RAMDisk())
	f := fs.Create("a.dat")
	f.WriteAt([]byte("hello"), 0)
	f.WriteAt([]byte("world"), 10) // hole in the middle
	if f.Size() != 15 {
		t.Fatalf("size = %d", f.Size())
	}
	buf := make([]byte, 15)
	if n := f.ReadAt(buf, 0); n != 15 {
		t.Fatalf("read %d", n)
	}
	if string(buf[:5]) != "hello" || string(buf[10:]) != "world" {
		t.Fatalf("contents: %q", buf)
	}
	for i := 5; i < 10; i++ {
		if buf[i] != 0 {
			t.Fatal("hole not zero-filled")
		}
	}
	// Read past EOF.
	if n := f.ReadAt(buf, 20); n != 0 {
		t.Fatalf("read past EOF returned %d", n)
	}
	// Short read at EOF.
	if n := f.ReadAt(buf, 12); n != 3 {
		t.Fatalf("short read returned %d", n)
	}
}

func TestTruncate(t *testing.T) {
	fs := MustNew(RAMDisk())
	f := fs.Create("t")
	f.WriteAt([]byte("abcdef"), 0)
	f.Truncate(3)
	if f.Size() != 3 {
		t.Fatalf("size after shrink = %d", f.Size())
	}
	f.Truncate(5)
	if f.Size() != 5 {
		t.Fatalf("size after grow = %d", f.Size())
	}
	snap := f.Snapshot()
	if string(snap[:3]) != "abc" || snap[3] != 0 || snap[4] != 0 {
		t.Fatalf("grown area: %q", snap)
	}
}

// TestExtendAfterTruncateIsZeroFilled: growth reuses spare capacity, so
// bytes a Truncate cut off must not come back when the file is extended —
// by Truncate or by a write past the end — in any piecewise order.
func TestExtendAfterTruncateIsZeroFilled(t *testing.T) {
	fs := MustNew(RAMDisk())
	f := fs.Create("t")
	f.WriteAt(bytes.Repeat([]byte{0xff}, 64), 0)
	f.Truncate(8)
	f.WriteAt([]byte("xy"), 30) // hole 8..30 lies in the old capacity
	f.Truncate(48)
	want := append(bytes.Repeat([]byte{0xff}, 8), make([]byte, 40)...)
	copy(want[30:], "xy")
	if got := f.Snapshot(); !bytes.Equal(got, want) {
		t.Fatalf("stale bytes re-exposed:\n got %x\nwant %x", got, want)
	}
	// Create truncates in place and keeps the capacity: same rule.
	f = fs.Create("t")
	f.WriteAt([]byte("z"), 63)
	if got := f.Snapshot(); !bytes.Equal(got[:63], make([]byte, 63)) || got[63] != 'z' {
		t.Fatalf("stale bytes after re-create: %x", got)
	}
}

// TestPiecewiseExtensionAllocatesLinearly: a file extended by many small
// writes must not copy itself once per extension, whatever order the writes
// come in (the shared output file is written by every rank in host order).
func TestPiecewiseExtensionAllocatesLinearly(t *testing.T) {
	const pieces, piece = 512, 1 << 10
	fs := MustNew(RAMDisk())
	p := make([]byte, piece)
	g := fs.Create("fresh")
	grows, lastCap := 0, 0
	for i := 0; i < pieces; i++ {
		g.WriteAt(p, int64(i*piece))
		if c := cap(g.chunks[len(g.chunks)-1]); c != lastCap {
			grows, lastCap = grows+1, c
		}
	}
	if grows > 10 {
		t.Fatalf("%d reallocations for %d extensions, want ≤ log2+1", grows, pieces)
	}
}

func TestNamespace(t *testing.T) {
	fs := MustNew(RAMDisk())
	fs.WriteFile("b", []byte("2"))
	fs.WriteFile("a", []byte("1"))
	if _, err := fs.Open("missing"); err == nil {
		t.Fatal("open of missing file succeeded")
	}
	got := fs.List()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("list = %v", got)
	}
	data, err := fs.ReadFile("a")
	if err != nil || string(data) != "1" {
		t.Fatalf("readfile: %q %v", data, err)
	}
	if err := fs.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("a"); err == nil {
		t.Fatal("double remove succeeded")
	}
	f := fs.OpenOrCreate("c")
	if f == nil || fs.OpenOrCreate("c") != f {
		t.Fatal("OpenOrCreate not idempotent")
	}
}

func TestAccessSingleChannelSerializes(t *testing.T) {
	fs := MustNew(Profile{Name: "t", Latency: 1, Bandwidth: 100, Channels: 1})
	// Two concurrent 100-byte accesses at t=0: second queues behind first.
	end1 := fs.Access(0, 100) // 1 + 1 = 2
	end2 := fs.Access(0, 100) // starts at 2 → ends at 4
	if end1 != 2 {
		t.Fatalf("end1 = %g", end1)
	}
	if end2 != 4 {
		t.Fatalf("end2 = %g, want 4 (serialized)", end2)
	}
}

func TestAccessMultiChannelParallel(t *testing.T) {
	fs := MustNew(Profile{Name: "t", Latency: 1, Bandwidth: 100, Channels: 4})
	for i := 0; i < 4; i++ {
		if end := fs.Access(0, 100); end != 2 {
			t.Fatalf("stream %d end = %g, want 2 (parallel)", i, end)
		}
	}
	// Fifth access queues.
	if end := fs.Access(0, 100); end != 4 {
		t.Fatalf("fifth stream end = %g, want 4", end)
	}
}

func TestAccessIdleChannelsRecover(t *testing.T) {
	fs := MustNew(Profile{Name: "t", Latency: 0, Bandwidth: 100, Channels: 1})
	fs.Access(0, 100) // busy until 1
	if end := fs.Access(10, 100); end != 11 {
		t.Fatalf("late access end = %g, want 11 (no queueing)", end)
	}
}

func TestAccessMonotoneQuick(t *testing.T) {
	fs := MustNew(XFSLike())
	f := func(start uint16, size uint16) bool {
		s := float64(start)
		end := fs.Access(s, int64(size))
		return end >= s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBeginRunResetsTimingNotStats: a new run meets free channels and a
// zero watermark; operation ordinals and byte counts stay cumulative, which
// is what lets a fault plan be scheduled relative to Stats().
func TestBeginRunResetsTimingNotStats(t *testing.T) {
	reg := metrics.NewRegistry()
	fs := MustNew(Profile{Name: "t", Latency: 1, Bandwidth: 100, Channels: 1})
	fs.SetMetrics(reg)
	inversions := func() int64 {
		for _, c := range reg.Snapshot().Counters {
			if c.Name == "vfs.t.order_inversions" {
				return c.Value
			}
		}
		t.Fatal("vfs.t.order_inversions not registered")
		return 0
	}
	if end := fs.Access(5, 100); end != 7 {
		t.Fatalf("first access ends at %g, want 7", end)
	}
	fs.Access(5, 100) // equal start: in order
	if got := inversions(); got != 0 {
		t.Fatalf("%d inversions after in-order accesses", got)
	}
	fs.Access(4, 100) // below the watermark
	if got := inversions(); got != 1 {
		t.Fatalf("%d inversions after an out-of-order access, want 1", got)
	}
	fs.BeginRun()
	if end := fs.Access(0, 100); end != 2 {
		t.Fatalf("access at 0 in a new run ends at %g, want 2 (channel free)", end)
	}
	if got := inversions(); got != 1 {
		t.Fatalf("%d inversions: t=0 in a new run is not an inversion", got)
	}
	if ops, _, _ := fs.Stats(); ops != 4 {
		t.Fatalf("ops = %d, want 4 (cumulative across runs)", ops)
	}
}

func TestStats(t *testing.T) {
	fs := MustNew(RAMDisk())
	f := fs.Create("s")
	f.WriteAt(make([]byte, 100), 0)
	buf := make([]byte, 40)
	f.ReadAt(buf, 0)
	fs.Access(0, 1)
	ops, br, bw := fs.Stats()
	if ops != 1 || br != 40 || bw != 100 {
		t.Fatalf("stats = %d %d %d", ops, br, bw)
	}
}

func TestCluster(t *testing.T) {
	nodes, err := Cluster(4, XFSLike(), ptr(LocalDisk()))
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 4 {
		t.Fatalf("%d nodes", len(nodes))
	}
	for i := 1; i < 4; i++ {
		if nodes[i].Shared != nodes[0].Shared {
			t.Fatal("shared FS not shared")
		}
		if nodes[i].Local == nodes[0].Local || nodes[i].Local == nil {
			t.Fatal("local disks must be private")
		}
	}
	nodes, err = Cluster(2, NFSLike(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if nodes[0].Local != nil {
		t.Fatal("diskless cluster has a local disk")
	}
	// Shared writes visible across nodes.
	nodes[0].Shared.WriteFile("x", []byte("shared"))
	data, err := nodes[1].Shared.ReadFile("x")
	if err != nil || !bytes.Equal(data, []byte("shared")) {
		t.Fatal("shared file not visible on other node")
	}
}

func ptr(p Profile) *Profile { return &p }

// TestReserveAddsAChunk: a reserved file grows by exactly what is reserved,
// without copying what it holds, and reads, writes, truncates and snapshots
// across the chunk boundary as one contiguous file.
func TestReserveAddsAChunk(t *testing.T) {
	fs := MustNew(RAMDisk())
	f := fs.Create("out")
	want := make([]byte, 0, 3000)
	write := func(p []byte, off int64) {
		f.WriteAt(p, off)
		if end := int(off) + len(p); end > len(want) {
			want = append(want, make([]byte, end-len(want))...)
		}
		copy(want[off:], p)
	}
	write(bytes.Repeat([]byte{1}, 1000), 0)
	allocs := testing.AllocsPerRun(1, func() { f.Reserve(f.Size()) })
	if allocs != 0 || len(f.chunks) != 1 {
		t.Fatalf("reserving the current size: %.0f allocations, %d chunks", allocs, len(f.chunks))
	}
	f.Reserve(2500)
	if len(f.chunks) != 2 || cap(f.chunks[1]) != 2500-1000 {
		t.Fatalf("Reserve(2500) of a 1000-byte file: %d chunks, the last of capacity %d", len(f.chunks), cap(f.chunks[1]))
	}
	// Writes inside the reservation, in any order, allocate nothing.
	if allocs := testing.AllocsPerRun(1, func() {
		f.WriteAt(bytes.Repeat([]byte{3}, 500), 2000)
		f.WriteAt(bytes.Repeat([]byte{2}, 200), 990)
	}); allocs != 2 { // the two argument slices
		t.Errorf("writes inside the reservation: %.0f allocations, want only their 2 arguments", allocs)
	}
	write(bytes.Repeat([]byte{3}, 500), 2000)
	write(bytes.Repeat([]byte{2}, 200), 990)
	write([]byte("tail"), 2800) // past the reservation: the last chunk grows
	if got := f.Snapshot(); !bytes.Equal(got, want) {
		t.Fatalf("snapshot differs from the bytes written")
	}
	buf := make([]byte, 40)
	if n := f.ReadAt(buf, 980); n != 40 || !bytes.Equal(buf, want[980:1020]) {
		t.Fatalf("read across the chunk boundary: %d bytes %v", n, buf[:n])
	}
	f.Truncate(1100)
	f.Truncate(1200)
	want = append(want[:1100], make([]byte, 100)...)
	if got := f.Snapshot(); !bytes.Equal(got, want) || f.Size() != 1200 {
		t.Fatalf("truncate across chunks: %d bytes, stale or wrong content", len(got))
	}
	f.Truncate(500)
	if got := f.Snapshot(); len(f.chunks) != 1 || !bytes.Equal(got, want[:500]) {
		t.Fatalf("truncate into the first chunk: %d chunks, %d bytes", len(f.chunks), len(got))
	}
}
