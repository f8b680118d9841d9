// Tree collectives: k-ary reduction and broadcast over an explicit member
// list, built from point-to-point messages so the per-hop latency and
// volume are charged where they really land. The flat AllGather models the
// root link as the bottleneck — completion pays the total inbound volume —
// which is exactly the paper's §3.2 master-serialization problem. A k-ary
// tree spreads that cost: each node receives at most `fanout` bundles, so
// the root's critical path shrinks from O(N) message ingests to
// O(k·log_k N).
//
// # Topology
//
// Members are sorted ascending and the root rotated to position 0; the
// node at position p has parent (p-1)/fanout and children fanout·p+1 …
// fanout·p+fanout. Every member would derive the identical topology from its
// own copy of the list; the world builds it once per (root, fan-out, member
// list) and the members read it (World.layout).
//
// # Faults
//
// One rule for both collectives: the tree runs when no fault is scheduled
// (blocking receives from exact children, one message per edge); when one
// is, TreeReduce and TreeBcast go flat — one AllGather, one Bcast — which
// complete over the survivors by construction. Members must then be every
// live rank, because the flat collectives synchronize world-wide; the
// engines always call them that way.
package mpi

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
)

// Tree-collective message tags, inside the dedicated CollTagBase region so
// CommStats books the traffic as collective-operation volume.
const (
	tagTreeReduce = CollTagBase + 1
	tagTreeBcast  = CollTagBase + 2
)

// DefaultTreeFanout is the fan-out used when a caller passes no explicit
// preference. Four balances depth against per-node ingest for the rank
// counts the experiments sweep.
const DefaultTreeFanout = 4

// treeTopo is the deterministic k-ary layout of one member list.
type treeTopo struct {
	fanout  int
	members []int // position-ordered: members[0] is the root rank
	key     []int // the member list as the caller gave it (World.layout)
}

// layout returns the k-ary layout of (root, fanout, members). Every member of
// a tree collective asks for the same one, call after call, so the world
// keeps the last layout built and rebuilds it only when root, fan-out or
// member list differs — in the engines, when the membership changes. Only
// the token holder gets here, so the slot needs no lock; the built/reused
// counters are host-side and booked under rank 0 (see Once).
func (w *World) layout(root, fanout int, members []int) treeTopo {
	t, series := &w.topo, "mpi.tree_layout_reuses"
	if len(t.members) == 0 || t.members[0] != root || t.fanout != fanout || !slices.Equal(t.key, members) {
		*t, series = newTreeTopo(root, fanout, members), "mpi.tree_layout_builds"
	}
	w.config.Metrics.Counter(series, 0).Inc()
	return *t
}

func newTreeTopo(root, fanout int, members []int) treeTopo {
	if fanout < 2 {
		panic(fmt.Sprintf("mpi: tree fanout %d < 2", fanout))
	}
	ms := append([]int(nil), members...)
	sort.Ints(ms)
	for i := 1; i < len(ms); i++ {
		if ms[i] == ms[i-1] {
			panic(fmt.Sprintf("mpi: duplicate tree member %d", ms[i]))
		}
	}
	ri := -1
	for i, m := range ms {
		if m == root {
			ri = i
			break
		}
	}
	if ri < 0 {
		panic(fmt.Sprintf("mpi: tree root %d not in members", root))
	}
	// Rotate the root to the front, keeping everyone else ascending.
	ordered := make([]int, 0, len(ms))
	ordered = append(ordered, root)
	ordered = append(ordered, ms[:ri]...)
	ordered = append(ordered, ms[ri+1:]...)
	return treeTopo{fanout: fanout, members: ordered, key: slices.Clone(members)}
}

// position returns the caller's place in the layout; calling a tree
// collective without being a member is a bug in the caller.
func (t treeTopo) position(op string, rank int) int {
	p := slices.Index(t.members, rank)
	if p < 0 {
		panic(fmt.Sprintf("mpi: rank %d called %s without being a member", rank, op))
	}
	return p
}

func (t treeTopo) parent(p int) int { return (p - 1) / t.fanout }

func (t treeTopo) children(p int) []int {
	var out []int
	for c := t.fanout*p + 1; c <= t.fanout*p+t.fanout && c < len(t.members); c++ {
		out = append(out, c)
	}
	return out
}

// depth is the number of hops from position p to the root.
func (t treeTopo) depth(p int) int {
	d := 0
	for p > 0 {
		p = t.parent(p)
		d++
	}
	return d
}

// maxDepth is the height of the whole tree.
func (t treeTopo) maxDepth() int {
	if len(t.members) <= 1 {
		return 0
	}
	return t.depth(len(t.members) - 1)
}

// treeBundle is one up-phase message: the combined payload of a subtree and
// the members it covers. The wire form also carries the sender's round stamp
// and the covered list a second time; nothing reads either, but every encoded
// byte is charged to the clocks, so dropping them is a model change.
type treeBundle struct {
	round   int64
	covered []int // ranks whose data is folded into payload, ascending
	payload []byte
}

func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(b, tmp[:binary.PutUvarint(tmp[:], v)]...)
}

func appendRankList(b []byte, ranks []int) []byte {
	b = appendUvarint(b, uint64(len(ranks)))
	for _, r := range ranks {
		b = appendUvarint(b, uint64(r))
	}
	return b
}

type treeDecoder struct {
	buf []byte
	bad bool
}

func (d *treeDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *treeDecoder) rankList() []int {
	n := int(d.uvarint())
	if d.bad || n > len(d.buf) {
		d.bad = true
		return nil
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, int(d.uvarint()))
	}
	return out
}

func (d *treeDecoder) blob() []byte {
	n := int(d.uvarint())
	if d.bad || n > len(d.buf) {
		d.bad = true
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (b treeBundle) encode() []byte {
	out := appendUvarint(nil, uint64(b.round))
	out = appendRankList(out, b.covered)
	out = appendRankList(out, b.covered) // the wire's second copy
	out = appendUvarint(out, uint64(len(b.payload)))
	return append(out, b.payload...)
}

func decodeTreeBundle(data []byte) (treeBundle, bool) {
	d := treeDecoder{buf: data}
	b := treeBundle{round: int64(d.uvarint())}
	b.covered = d.rankList()
	d.rankList() // the wire's second copy
	b.payload = d.blob()
	return b, !d.bad
}

// recordTreeOp books one member's entry into a tree collective, mirroring
// the flat runCollective accounting (per-op count and byte series).
func (r *Rank) recordTreeOp(op string, size int64) {
	if reg := r.world.config.Metrics; reg != nil {
		reg.Counter("mpi.collective."+op, r.id).Inc()
		reg.Counter("mpi.collective."+op+".bytes", r.id).Add(size)
		reg.Counter("mpi.collective.bytes", r.id).Add(size)
	}
}

// recordTreeEdge books one tree-edge message at the sender's tree level
// (the root is level 0), giving the per-level latency/volume attribution
// the mergescale experiment reads.
func (r *Rank) recordTreeEdge(level int, size int64) {
	if reg := r.world.config.Metrics; reg != nil {
		series := fmt.Sprintf("mpi.tree.level%02d", level)
		reg.Counter(series+".msgs", r.id).Inc()
		reg.Counter(series+".bytes", r.id).Add(size)
	}
}

// TreeReduce folds every member's payload into one result at root using
// the user-supplied combiner, which MUST be associative and commutative —
// the fold order is deterministic but depends on the topology. The root
// receives the combined payload and the ascending list of members whose
// data it folded; every other member receives (nil, nil, nil).
//
// With no fault scheduled the fold climbs the k-ary message tree, whose
// layout the members share (World.layout): pass the same member list call
// after call and nothing is copied or sorted again. With one scheduled it
// goes flat over the survivors (members must then be every live rank): a
// member that is alive when it makes the call contributes, even an
// empty payload, and a member that crashed earlier is reported by its
// absence from contributors. If the root is the one that crashed nobody
// receives the fold, and every survivor still returns.
//
//lint:collective
//lint:payload data
func (r *Rank) TreeReduce(root, fanout int, members []int, data []byte, combine func(a, b []byte) []byte) ([]byte, []int, error) {
	t := r.world.layout(root, fanout, members)
	myPos := t.position("TreeReduce", r.id)
	r.maybeCrash()
	r.recordTreeOp("treereduce", int64(len(data)))
	if r.id == root {
		if reg := r.world.config.Metrics; reg != nil {
			reg.Gauge("mpi.tree.fanout", r.id).Set(float64(fanout))
			reg.Gauge("mpi.tree.depth", r.id).Set(float64(t.maxDepth()))
		}
	}
	if len(t.members) == 1 {
		return data, []int{r.id}, nil
	}
	if r.FaultsScheduled() {
		return r.treeReduceFlat(t, data, combine)
	}
	return r.treeReduceFast(t, myPos, data, combine)
}

// foldBundles combines own data with the stashed bundles in deterministic
// order (ascending minimum covered rank) and returns the fold plus the
// ascending union of covered ranks.
func foldBundles(self int, data []byte, stash []treeBundle, combine func(a, b []byte) []byte) ([]byte, []int) {
	sort.Slice(stash, func(i, j int) bool { return stash[i].covered[0] < stash[j].covered[0] })
	combined := data
	covered := []int{self}
	for _, b := range stash {
		combined = combine(combined, b.payload)
		covered = append(covered, b.covered...)
	}
	sort.Ints(covered)
	return combined, covered
}

// treeReduceFast is the fault-free up phase: exact blocking receives from
// every child, one bundle per edge.
func (r *Rank) treeReduceFast(t treeTopo, myPos int, data []byte, combine func(a, b []byte) []byte) ([]byte, []int, error) {
	r.treeRound++
	var stash []treeBundle
	for _, c := range t.children(myPos) {
		raw, _, _ := r.Recv(t.members[c], tagTreeReduce)
		b, ok := decodeTreeBundle(raw)
		if !ok {
			return nil, nil, fmt.Errorf("mpi: rank %d received corrupt tree bundle", r.id)
		}
		stash = append(stash, b)
	}
	combined, covered := foldBundles(r.id, data, stash, combine)
	if myPos == 0 {
		return combined, covered, nil
	}
	b := treeBundle{round: r.treeRound, covered: covered, payload: combined}
	raw := b.encode()
	r.recordTreeEdge(t.depth(myPos), int64(len(raw)))
	r.Send(t.members[t.parent(myPos)], tagTreeReduce, raw)
	return nil, nil, nil
}

// treeReduceFlat is the reduction under a fault schedule: one AllGather,
// which completes over the survivors, and the root folds what arrived. Each
// contribution travels behind a one-byte frame, so a live member's empty
// payload (one byte gathered) and a rank that crashed before joining (none)
// cannot be confused.
func (r *Rank) treeReduceFlat(t treeTopo, data []byte, combine func(a, b []byte) []byte) ([]byte, []int, error) {
	gathered := r.AllGather(append(make([]byte, 1, 1+len(data)), data...))
	if r.id != t.members[0] {
		return nil, nil, nil
	}
	var stash []treeBundle
	for _, m := range t.members[1:] {
		if framed := gathered[m]; len(framed) > 0 {
			stash = append(stash, treeBundle{covered: []int{m}, payload: framed[1:]})
		}
	}
	combined, covered := foldBundles(r.id, data, stash, combine)
	return combined, covered, nil
}

// TreeBcast distributes root's payload to every member and returns it
// everywhere. With no fault scheduled it forwards hop by hop along the k-ary
// tree (each edge pays its own latency and bandwidth); with one scheduled it
// is the flat Bcast over the survivors (members must then be every live
// rank) — the same rule as TreeReduce, and the same shared layout.
//
//lint:collective
//lint:payload data
func (r *Rank) TreeBcast(root, fanout int, members []int, data []byte) []byte {
	t := r.world.layout(root, fanout, members)
	myPos := t.position("TreeBcast", r.id)
	r.maybeCrash()
	var own int64
	if r.id == root {
		own = int64(len(data))
	}
	r.recordTreeOp("treebcast", own)
	if len(t.members) == 1 {
		return data
	}
	if r.FaultsScheduled() {
		return r.Bcast(root, data)
	}
	payload := data
	if myPos != 0 {
		raw, _, _ := r.Recv(t.members[t.parent(myPos)], tagTreeBcast)
		payload = raw
	}
	for _, c := range t.children(myPos) {
		r.recordTreeEdge(t.depth(c), int64(len(payload)))
		r.Send(t.members[c], tagTreeBcast, payload)
	}
	return payload
}
