// Tree collectives: k-ary reduction and broadcast over an explicit member
// list, built from point-to-point messages so the per-hop latency and
// volume are charged where they really land. The flat AllGather models the
// root link as the bottleneck — completion pays the total inbound volume —
// which is exactly the paper's §3.2 master-serialization problem. A k-ary
// tree spreads that cost: each node receives at most `fanout` partial folds,
// so the root's critical path shrinks from O(N) message ingests to
// O(k·log_k N). An edge carries its subtree's fold as the bare payload and
// nothing else.
//
// # Topology
//
// Members are sorted ascending and the root rotated to position 0; the
// node at position p has parent (p-1)/fanout and children fanout·p+1 …
// fanout·p+fanout. Every member would derive the identical topology from its
// own copy of the list; the world builds it once per (root, fan-out, member
// list) and the members read it (World.layout). Like a sent payload, a member
// list is read and not copied on the fast path, so a caller must not change
// it after the call: a new membership is a new slice. Under a fault schedule
// both collectives go flat (the package comment's # Faults).
package mpi

import (
	"fmt"
	"slices"
)

// Tree-collective message tags, inside the dedicated CollTagBase region so
// their traffic is booked as collective-operation volume.
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
	pos     []int // pos[rank] is rank's position, -1 for a non-member
	// key is the member list as a caller last gave it: the slice the layout
	// was built from, or the last one found equal to it.
	key []int
}

// layout returns the k-ary layout of (root, fanout, members). Every member of
// a tree collective asks for the same one, call after call, so the world
// keeps the last layout built and rebuilds it only when root, fan-out or
// member list differs — in the engines, when the membership changes. A
// caller that passes the very slice the layout last met (the engines' ranks
// share one) costs no comparison. Only the token holder gets here, so the
// slot needs no lock; the built/reused counters are host-side and booked
// under rank 0 (see Once).
func (w *World) layout(root, fanout int, members []int) treeTopo {
	t, series := &w.topo, "mpi.tree_layout_reuses"
	same := len(t.members) > 0 && t.members[0] == root && t.fanout == fanout
	switch {
	case same && sameSlice(t.key, members):
	case same && slices.Equal(t.key, members):
		t.key = members
	default:
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
	slices.Sort(ms)
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
	pos := make([]int, max(ms[len(ms)-1]+1, 0))
	for i := range pos {
		pos[i] = -1
	}
	for p, m := range ordered {
		if m >= 0 {
			pos[m] = p
		}
	}
	return treeTopo{fanout: fanout, members: ordered, pos: pos, key: members}
}

// position returns the caller's place in the layout; calling a tree
// collective without being a member is a bug in the caller.
func (t treeTopo) position(op string, rank int) int {
	if rank < 0 || rank >= len(t.pos) || t.pos[rank] < 0 {
		panic(fmt.Sprintf("mpi: rank %d called %s without being a member", rank, op))
	}
	return t.pos[rank]
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
// (the root is level 0), giving the per-level message and byte attribution
// of a run's metrics (TestTreeReduceBarePayloads sums it).
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
// after call and nothing is copied or sorted again. Each edge carries the
// sender's partial fold and nothing else, the fold is a pre-order walk of the
// layout, and the root's contributors are every member. With one scheduled it
// goes flat over the survivors (members must then be every live rank): a
// member that is alive when it makes the call contributes, even an
// empty payload, and a member that crashed earlier is reported by its
// absence from contributors. If the root is the one that crashed nobody
// receives the fold, and every survivor still returns.
//
//lint:payload
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
	if r.faultsScheduled() {
		return r.treeReduceFlat(t, data, combine)
	}
	return r.treeReduceFast(t, myPos, data, combine)
}

// treeReduceFast is the fault-free up phase: exact blocking receives from
// every child, each carrying its subtree's fold as the bare payload, folded in
// child-position order. Every subtree's members follow its root in the
// layout, so that is ascending order of each subtree's smallest rank.
func (r *Rank) treeReduceFast(t treeTopo, myPos int, data []byte, combine func(a, b []byte) []byte) ([]byte, []int, error) {
	combined := data
	for _, c := range t.children(myPos) {
		raw, _, _ := r.Recv(t.members[c], tagTreeReduce)
		combined = combine(combined, raw)
	}
	if myPos == 0 {
		// Nobody can crash here, so every member contributed.
		contributors := slices.Clone(t.members)
		slices.Sort(contributors)
		return combined, contributors, nil
	}
	r.recordTreeEdge(t.depth(myPos), int64(len(combined)))
	r.Send(t.members[t.parent(myPos)], tagTreeReduce, combined)
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
	// The root folds its own payload first, then the others in member order.
	combined, contributors := data, []int{r.id}
	for _, m := range t.members[1:] {
		if framed := gathered[m]; len(framed) > 0 {
			combined = combine(combined, framed[1:])
			contributors = append(contributors, m)
		}
	}
	slices.Sort(contributors)
	return combined, contributors, nil
}

// TreeBcast distributes root's payload to every member and returns it
// everywhere. With no fault scheduled it forwards hop by hop along the k-ary
// tree (each edge pays its own latency and bandwidth); with one scheduled it
// is the flat Bcast over the survivors (members must then be every live
// rank) — the same rule as TreeReduce, and the same shared layout.
//
//lint:payload
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
	if r.faultsScheduled() {
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
