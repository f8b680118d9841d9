// The tree collective: a k-ary reduction over every live rank, built from
// point-to-point messages so the per-hop latency and volume are charged where
// they really land. The flat AllGather models the root link as the bottleneck
// — completion pays the total inbound volume — which is exactly the paper's
// §3.2 master-serialization problem. A k-ary tree spreads that cost: each
// node receives at most `fanout` partial folds, so the root's critical path
// shrinks from O(N) message ingests to O(k·log_k N). An edge carries its
// subtree's fold as the bare payload and nothing else.
//
// There is no tree broadcast. What a merge's root sends back is each rank's
// own view (which of its hits were chosen, and where they land), a different
// message per rank; a broadcast would carry every rank's view to every rank,
// N² bytes for what N point-to-point sends deliver in O(N).
//
// # Topology
//
// Who takes part is the runtime's business, as in an MPI collective: every
// live rank calls, and no caller names the others. The root sits at position
// 0 and every other rank follows in ascending order — rank+1 below the root,
// rank above it —; the node at position p has parent (p-1)/fanout and
// children fanout·p+1 … fanout·p+fanout. That is arithmetic on (root, fanout,
// world size), so nothing is built or shared. Under a fault schedule the
// reduction goes flat (the package comment's # Faults).
package mpi

import (
	"fmt"
	"slices"
)

// The tree reduction's message tag, inside the dedicated CollTagBase region so
// its traffic is booked as collective-operation volume.
const tagTreeReduce = CollTagBase + 1

// DefaultTreeFanout is the fan-out used when a caller passes no explicit
// preference. Four balances depth against per-node ingest for the rank
// counts the experiments sweep.
const DefaultTreeFanout = 4

// treeTopo is the k-ary layout of n ranks rooted at root.
type treeTopo struct{ root, fanout, n int }

// position is rank's position in the layout.
func (t treeTopo) position(rank int) int {
	switch {
	case rank == t.root:
		return 0
	case rank < t.root:
		return rank + 1
	}
	return rank
}

// rank is the rank at position p, the inverse of position.
func (t treeTopo) rank(p int) int {
	switch {
	case p == 0:
		return t.root
	case p <= t.root:
		return p - 1
	}
	return p
}

func (t treeTopo) parent(p int) int { return (p - 1) / t.fanout }

// children is the position range [first, end) of p's children.
func (t treeTopo) children(p int) (first, end int) {
	first = min(t.fanout*p+1, t.n)
	return first, min(first+t.fanout, t.n)
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

// recordTreeOp books one rank's entry into a tree collective, mirroring
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

// TreeReduce folds every live rank's payload into one result at root using
// the user-supplied combiner, which MUST be associative and commutative —
// the fold order is deterministic but depends on the topology. Every live
// rank calls it. The root receives the combined payload and the ascending
// list of ranks whose data it folded; every other rank receives (nil, nil,
// nil).
//
// With no fault scheduled the fold climbs the k-ary message tree: each edge
// carries the sender's partial fold and nothing else, the fold is a pre-order
// walk of the layout, and the root's contributors are every rank. With one
// scheduled it goes flat over the survivors: a rank that is alive when it
// makes the call contributes, even an empty payload, and a rank that crashed
// earlier is reported by its absence from contributors. If the root is the
// one that crashed nobody receives the fold, and every survivor still
// returns.
//
// The third argument is ignored; callers pass nil. It is the member list of
// an earlier form of this call, kept only because the frozen bench/ module
// still passes one.
//
//lint:payload
func (r *Rank) TreeReduce(root, fanout int, _ []int, data []byte, combine func(a, b []byte) []byte) ([]byte, []int, error) {
	if fanout < 2 {
		panic(fmt.Sprintf("mpi: tree fanout %d < 2", fanout))
	}
	t := treeTopo{root: root, fanout: fanout, n: r.world.n}
	r.maybeCrash()
	r.recordTreeOp("treereduce", int64(len(data)))
	if r.id == root {
		if reg := r.world.config.Metrics; reg != nil {
			reg.Gauge("mpi.tree.fanout", r.id).Set(float64(fanout))
			reg.Gauge("mpi.tree.depth", r.id).Set(float64(t.depth(t.n - 1)))
		}
	}
	if t.n == 1 {
		return data, []int{r.id}, nil
	}
	if r.faultsScheduled() {
		return r.treeReduceFlat(t, data, combine)
	}
	return r.treeReduceFast(t, data, combine)
}

// treeReduceFast is the fault-free up phase: exact blocking receives from
// every child, each carrying its subtree's fold as the bare payload, folded in
// child-position order. Every subtree's ranks follow its root in the layout,
// so that is ascending order of each subtree's smallest position.
func (r *Rank) treeReduceFast(t treeTopo, data []byte, combine func(a, b []byte) []byte) ([]byte, []int, error) {
	combined, myPos := data, t.position(r.id)
	for c, end := t.children(myPos); c < end; c++ {
		raw, _, _ := r.Recv(t.rank(c), tagTreeReduce)
		combined = combine(combined, raw)
	}
	if myPos == 0 {
		// Nobody can crash here, so every rank contributed.
		contributors := make([]int, t.n)
		for i := range contributors {
			contributors[i] = i
		}
		return combined, contributors, nil
	}
	r.recordTreeEdge(t.depth(myPos), int64(len(combined)))
	r.Send(t.rank(t.parent(myPos)), tagTreeReduce, combined)
	return nil, nil, nil
}

// treeReduceFlat is the reduction under a fault schedule: one AllGather,
// which completes over the survivors, and the root folds what arrived in
// position order. Each contribution travels behind a one-byte frame, so a
// live rank's empty payload (one byte gathered) and a rank that crashed
// before joining (none) cannot be confused.
func (r *Rank) treeReduceFlat(t treeTopo, data []byte, combine func(a, b []byte) []byte) ([]byte, []int, error) {
	gathered := r.AllGather(append(make([]byte, 1, 1+len(data)), data...))
	if r.id != t.root {
		return nil, nil, nil
	}
	combined, contributors := data, []int{r.id}
	for p := 1; p < t.n; p++ {
		if m := t.rank(p); len(gathered[m]) > 0 {
			combined = combine(combined, gathered[m][1:])
			contributors = append(contributors, m)
		}
	}
	slices.Sort(contributors)
	return combined, contributors, nil
}
