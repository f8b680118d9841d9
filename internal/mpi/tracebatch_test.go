package mpi

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"parblast/internal/trace"
)

// TestTraceBatchMonotoneAdoption is the two-batch stale-sideband
// regression: in a stream, a batch-0 reply can be delivered to the master
// AFTER the master has already advanced its context to batch 1 (late
// straggler results, retransmissions). Adoption must be monotone — the
// late delivery keeps its own batch id on the flow EDGE, but must not
// rewind the receiver's context, or every subsequent send would be
// stamped with the stale batch and the flow graph's per-batch split
// would attribute batch-1 traffic to batch 0.
func TestTraceBatchMonotoneAdoption(t *testing.T) {
	col := trace.NewCollector()
	_, _, err := RunConfig(2, Config{Cost: testCost(), Trace: col}, func(r *Rank) error {
		if r.ID() == 0 {
			// Master: dispatch batch 0, then batch 1, then receive the
			// worker's batch-0 reply — which arrives after the context
			// already moved to batch 1.
			r.SetTraceBatch(0)
			r.Send(1, 5, []byte("batch0-work"))
			r.SetTraceBatch(1)
			r.Send(1, 6, []byte("batch1-work"))
			r.Recv(1, 7) // late batch-0-stamped reply
			if got := r.traceBatch; got != 1 {
				return fmt.Errorf("master context rewound to %d by late batch-0 delivery, want 1", got)
			}
			r.Send(1, 8, []byte("batch1-followup"))
			return nil
		}
		// Worker: adopt batch 0 from the first request, reply while still
		// in batch-0 context, then consume the batch-1 request.
		r.Recv(0, 5)
		if got := r.traceBatch; got != 0 {
			return fmt.Errorf("worker did not adopt batch 0: got %d", got)
		}
		r.Send(0, 7, []byte("batch0-results"))
		r.Recv(0, 6)
		if got := r.traceBatch; got != 1 {
			return fmt.Errorf("worker did not advance to batch 1: got %d", got)
		}
		r.Recv(0, 8)
		if got := r.traceBatch; got != 1 {
			return fmt.Errorf("worker context after follow-up = %d, want 1", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Per-batch split of the flow edges must be exact: each edge carries
	// the batch its ENVELOPE was stamped with at send time, so the late
	// reply stays in batch 0 while the follow-up lands in batch 1.
	wantBatch := map[string]int{"tag05": 0, "tag06": 1, "tag07": 0, "tag08": 1}
	seen := map[string]bool{}
	for _, f := range col.Flows() {
		want, ok := wantBatch[f.Op]
		if !ok {
			t.Fatalf("unexpected flow op %q", f.Op)
		}
		if f.Batch != want {
			t.Fatalf("flow %s batch = %d, want %d", f.Op, f.Batch, want)
		}
		seen[f.Op] = true
	}
	for op := range wantBatch {
		if !seen[op] {
			t.Fatalf("flow edge for %s not recorded", op)
		}
	}
}

// inertEntry is what one rank saw after one scripted operation.
type inertEntry struct {
	op     string
	clock  float64
	digest uint64
}

// TestTraceContextIsInert: trace context — the batch a rank is stamped with,
// the batch and send clock on every envelope, the batches a collective
// gathers — is kept only while a collector is attached, and must reach no
// payload byte and no clock. A scripted world over every operation that
// stamps, carries or adopts it runs untraced, and traced with a distinct
// batch set before each operation of each rank; every rank logs its clock
// and a digest of what the operation returned. Fault-free and under a crash
// of each worker at eight times across the run, the logs must be equal, and
// a difference is reported at the operation and rank where it starts.
func TestTraceContextIsInert(t *testing.T) {
	const n, poll = 6, 2e-3
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	digest := func(parts ...any) uint64 {
		h := fnv.New64a()
		fmt.Fprint(h, parts...)
		return h.Sum64()
	}
	run := func(faults []Fault, traced bool) [][]inertEntry {
		cfg := Config{Cost: testCost(), Faults: faults}
		if traced {
			cfg.Trace = trace.NewCollector()
		}
		logs := make([][]inertEntry, n)
		_, _, err := RunConfig(n, cfg, func(r *Rank) error {
			id := r.ID()
			do := func(op string, f func() uint64) {
				r.SetTraceBatch(len(logs[id])*n + id)
				d := f()
				logs[id] = append(logs[id], inertEntry{op, r.Clock().Now(), d})
			}
			r.Compute(int64(1000 * (n - id)))
			if id == 0 {
				for w := 1; w < n; w++ {
					do("RecvCrashAware", func() uint64 { return digest(r.RecvCrashAware(w, 1)) })
				}
				for w := 1; w < n; w++ {
					do("Send", func() uint64 { r.Send(w, 2, rankPayload(w, 2)); return 0 })
				}
				for w := 1; w < n; w++ {
					for done := false; !done; {
						do("RecvTimeout", func() uint64 {
							data, from, tag, err := r.RecvTimeout(w, 3, poll)
							done = err != ErrTimeout
							return digest(data, from, tag, err)
						})
					}
				}
			} else {
				do("Send", func() uint64 { r.Send(0, 1, rankPayload(id, id)); return 0 })
				do("Recv", func() uint64 { return digest(r.Recv(0, 2)) })
				r.Compute(int64(3000 * id))
				do("Send", func() uint64 { r.Send(0, 3, rankPayload(id, 1)); return 0 })
			}
			do("Bcast", func() uint64 { return digest(r.Bcast(0, rankPayload(0, 4))) })
			var gathered [][]byte
			do("AllGather", func() uint64 { gathered = r.AllGather(rankPayload(id, 1)); return digest(gathered) })
			do("Once", func() uint64 {
				return digest(Once(r, "test.inert", func() int {
					total := 0
					for _, g := range gathered {
						total += len(g)
					}
					return total
				}))
			})
			do("Barrier", func() uint64 { r.Barrier(); return 0 })
			do("TreeReduce", func() uint64 { return digest(r.TreeReduce(0, 2, members, rankPayload(id, 2), sumCombine)) })
			do("TreeBcast", func() uint64 { return digest(r.TreeBcast(0, 2, members, rankPayload(0, 3))) })
			do("Aside", func() uint64 {
				var out []byte
				r.Aside(func() { out = rankPayload(id, 3) })
				return digest(out)
			})
			do("Barrier", func() uint64 { r.Barrier(); return 0 })
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return logs
	}
	compare := func(name string, faults []Fault) {
		t.Helper()
		plain, traced := run(faults, false), run(faults, true)
		// Each rank's first differing entry; the earliest of them in virtual
		// time is where the leak starts.
		var at string
		first := math.Inf(1)
		for rank := range plain {
			p, q := plain[rank], traced[rank]
			k := 0
			for k < len(p) && k < len(q) && p[k] == q[k] {
				k++
			}
			if k == len(p) && k == len(q) {
				continue
			}
			want, got := inertEntry{op: "nothing"}, inertEntry{op: "nothing"}
			if k < len(p) {
				want = p[k]
			}
			if k < len(q) {
				got = q[k]
			}
			clock := want.clock
			if k == len(p) {
				clock = got.clock
			}
			if clock < first {
				first = clock
				at = fmt.Sprintf("%s on rank %d (its operation %d): untraced it ends at clock %x with payload digest %x, traced %s ends at %x with %x",
					want.op, rank, k, want.clock, want.digest, got.op, got.clock, got.digest)
			}
		}
		if at != "" {
			t.Fatalf("%s: trace context reached %s", name, at)
		}
	}
	compare("fault-free", nil)
	// Rank 0 never crashes, and its last operation is the closing Barrier.
	master := run(nil, false)[0]
	wall := master[len(master)-1].clock
	const times = 8
	for victim := 1; victim < n; victim++ {
		for k := 0; k < times; k++ {
			at := wall * float64(k) / times
			compare(fmt.Sprintf("rank %d crashing at %d/%d of the run", victim, k, times),
				[]Fault{{Rank: victim, At: at, Kind: FaultCrash}})
		}
	}
}
