package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"parblast/internal/metrics"
)

func encI64(b []byte, v int64) { binary.LittleEndian.PutUint64(b, uint64(v)) }
func decI64(b []byte) int64    { return int64(binary.LittleEndian.Uint64(b)) }

// sumCombine folds two equal-length int64 vectors element-wise — an
// associative, commutative combiner for exercising TreeReduce.
func sumCombine(a, b []byte) []byte {
	if len(a) != len(b) {
		panic("sumCombine length mismatch")
	}
	out := make([]byte, len(a))
	for i := 0; i+8 <= len(a); i += 8 {
		encI64(out[i:], decI64(a[i:])+decI64(b[i:]))
	}
	return out
}

func rankPayload(id, width int) []byte {
	buf := make([]byte, 8*width)
	for i := 0; i < width; i++ {
		encI64(buf[8*i:], int64(id*31+i*7+1))
	}
	return buf
}

func TestTreeReduceMatchesFlatSum(t *testing.T) {
	const width = 3
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17} {
		for _, fanout := range []int{2, 3, 4, 8} {
			want := make([]int64, width)
			for id := 0; id < n; id++ {
				p := rankPayload(id, width)
				for i := 0; i < width; i++ {
					want[i] += decI64(p[8*i:])
				}
			}
			_, err := Run(n, testCost(), func(r *Rank) error {
				members := make([]int, n)
				for i := range members {
					members[i] = i
				}
				combined, contributors, err := r.TreeReduce(0, fanout, members, rankPayload(r.ID(), width), sumCombine)
				if err != nil {
					return err
				}
				if r.ID() != 0 {
					if combined != nil || contributors != nil {
						return fmt.Errorf("non-root rank %d got a result", r.ID())
					}
					return nil
				}
				if len(contributors) != n {
					return fmt.Errorf("contributors = %v, want all %d ranks", contributors, n)
				}
				for i := 0; i < width; i++ {
					if got := decI64(combined[8*i:]); got != want[i] {
						return fmt.Errorf("n=%d fanout=%d lane %d: got %d want %d", n, fanout, i, got, want[i])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d fanout=%d: %v", n, fanout, err)
			}
		}
	}
}

func TestTreeBcastAndBarrier(t *testing.T) {
	const n = 11
	payload := []byte("layout broadcast")
	_, err := Run(n, testCost(), func(r *Rank) error {
		members := make([]int, n)
		for i := range members {
			members[i] = i
		}
		var in []byte
		if r.ID() == 0 {
			in = payload
		}
		got := r.TreeBcast(0, 4, members, in)
		if !bytes.Equal(got, payload) {
			return fmt.Errorf("rank %d bcast got %q", r.ID(), got)
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTreeReduceCrashedGroupLeader kills a mid-tree rank — the "group
// leader" aggregating a whole subtree — and checks that its children's
// contributions are still recovered at the root via the crash-aware
// re-route/re-send protocol. Only the dead rank's own data may be lost.
func TestTreeReduceCrashedGroupLeader(t *testing.T) {
	const (
		n      = 13
		fanout = 3
		width  = 2
		victim = 1 // position 1: parent of positions 4..6 (ranks 4..6)
	)
	run := func() ([]int64, []int, error) {
		var combined []int64
		var contributors []int
		cfg := Config{
			Cost:   testCost(),
			Faults: []Fault{{Rank: victim, At: 0, Kind: FaultCrash}},
		}
		_, err := RunConfig(n, cfg, func(r *Rank) error {
			members := make([]int, n)
			for i := range members {
				members[i] = i
			}
			out, contrib, err := r.TreeReduce(0, fanout, members, rankPayload(r.ID(), width), sumCombine)
			if err != nil {
				return err
			}
			if r.ID() == 0 {
				contributors = contrib
				combined = make([]int64, width)
				for i := 0; i < width; i++ {
					combined[i] = decI64(out[8*i:])
				}
			}
			return nil
		})
		return combined, contributors, err
	}
	combined, contributors, err := run()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int64, 2)
	for id := 0; id < n; id++ {
		if id == victim {
			continue
		}
		p := rankPayload(id, 2)
		for i := range want {
			want[i] += decI64(p[8*i:])
		}
	}
	if len(contributors) != n-1 {
		t.Fatalf("contributors = %v, want all but rank %d", contributors, victim)
	}
	for _, c := range contributors {
		if c == victim {
			t.Fatalf("dead rank %d listed as contributor", victim)
		}
	}
	for i := range want {
		if combined[i] != want[i] {
			t.Fatalf("lane %d: got %d, want %d (survivor data lost)", i, combined[i], want[i])
		}
	}
	// The crash protocol must be deterministic: an identical re-run yields
	// the identical result.
	combined2, contributors2, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(combined2, contributors2) != fmt.Sprint(combined, contributors) {
		t.Fatalf("crash run not deterministic: %v/%v vs %v/%v", combined, contributors, combined2, contributors2)
	}
}

// TestCollectiveOpAccounting checks the per-op metric series (satellite:
// allgather/bcast bytes must be attributable per collective op, and the tree
// ops book their own series plus per-level edge volume).
func TestCollectiveOpAccounting(t *testing.T) {
	reg := metrics.NewRegistry()
	const n = 8
	cfg := Config{Cost: testCost(), Metrics: reg}
	_, err := RunConfig(n, cfg, func(r *Rank) error {
		r.AllGather([]byte("abcd"))
		var b []byte
		if r.ID() == 0 {
			b = []byte("xyz")
		}
		r.Bcast(0, b)
		members := make([]int, n)
		for i := range members {
			members[i] = i
		}
		r.TreeReduce(0, 2, members, []byte{1}, func(a, b []byte) []byte { return a })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.CounterTotal("mpi.collective.allgather"); got != n {
		t.Fatalf("allgather op count = %d, want %d", got, n)
	}
	if got := snap.CounterTotal("mpi.collective.allgather.bytes"); got != int64(n*4) {
		t.Fatalf("allgather bytes = %d, want %d", got, n*4)
	}
	if got := snap.CounterTotal("mpi.collective.bcast"); got != n {
		t.Fatalf("bcast op count = %d, want %d", got, n)
	}
	if got := snap.CounterTotal("mpi.collective.treereduce"); got != n {
		t.Fatalf("treereduce op count = %d, want %d", got, n)
	}
	// A binary tree over 8 ranks has depth 3; every non-root sends exactly
	// one up-phase bundle booked at its own level.
	if got := snap.CounterTotal("mpi.tree.level01.msgs") +
		snap.CounterTotal("mpi.tree.level02.msgs") +
		snap.CounterTotal("mpi.tree.level03.msgs"); got != n-1 {
		t.Fatalf("tree edge messages = %d, want %d", got, n-1)
	}
	if snap.GaugeTotal("mpi.tree.depth") != 3 {
		t.Fatalf("tree depth gauge = %g, want 3", snap.GaugeTotal("mpi.tree.depth"))
	}
}
