package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"time"

	"parblast/internal/metrics"
	"parblast/internal/simtime"
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

// runWatched is RunConfig behind a host-time watchdog, so a fault schedule
// that hangs the world fails its test by name. The runtime carries no such
// timer.
func runWatched(t *testing.T, n int, cfg Config, body func(*Rank) error) ([]*simtime.Clock, error) {
	t.Helper()
	type result struct {
		clocks []*simtime.Clock
		err    error
	}
	done := make(chan result, 1)
	go func() {
		clocks, err := RunConfig(n, cfg, body)
		done <- result{clocks, err}
	}()
	select {
	case res := <-done:
		return res.clocks, res.err
	case <-time.After(time.Minute):
		t.Fatalf("world of %d ranks still running after a minute", n)
		return nil, nil
	}
}

// TestTreeReduceUnderFaultSchedule is the contract of TreeReduce when any
// fault is scheduled, whatever the tree would have looked like: the root
// folds exactly the members that were alive when they made the call — a
// zero-length payload included —, names exactly those as contributors, and a
// crash of the root itself leaves every survivor returning empty-handed
// instead of waiting. Every case runs twice and must repeat itself to the
// last clock bit.
func TestTreeReduceUnderFaultSchedule(t *testing.T) {
	const width = 2
	// Every third rank is alive with nothing to say.
	payload := func(id int) []byte {
		if id%3 == 1 {
			return nil
		}
		return rankPayload(id, width)
	}
	combine := func(a, b []byte) []byte {
		if len(a) == 0 {
			return b
		}
		if len(b) == 0 {
			return a
		}
		return sumCombine(a, b)
	}
	// Rank id computes for busy(id) before the call, so entry clocks differ.
	busy := func(id int) float64 { return 1e-3 * float64(id+1) }
	// Crash times relative to the victim's own schedule. The victim's first
	// operation is its compute, its second the reduce, and after the reduce
	// everybody idles past t=2 and meets in a barrier.
	type when struct {
		name        string
		at          func(victim int) float64
		aliveAtCall bool // the victim still makes its TreeReduce call
	}
	whens := []when{
		{"at=0", func(int) float64 { return 0 }, false},
		{"at=computed", func(v int) float64 { return busy(v) / 2 }, false},
		{"at=reduced", func(int) float64 { return 1 }, true},
	}

	for _, n := range []int{2, 13, 64} {
		for _, fanout := range []int{2, 3, 8} {
			root := n / 3
			topo := newTreeTopo(root, fanout, allRanks(n))
			type victim struct {
				kind string
				rank int
			}
			victims := []victim{{"leaf", topo.members[n-1]}, {"root", root}}
			if len(topo.children(1)) > 0 {
				victims = append(victims, victim{"interior", topo.members[1]})
			}
			check := func(name string, faults []Fault, dead int) {
				t.Run(fmt.Sprintf("n=%d/fanout=%d/%s", n, fanout, name), func(t *testing.T) {
					var want []byte
					var alive []int
					for id := 0; id < n; id++ {
						if id != dead {
							alive = append(alive, id)
							want = combine(want, payload(id))
						}
					}
					run := func() string {
						var fold []byte
						var contributors []int
						returned := make([]bool, n)
						clocks, err := runWatched(t, n, Config{Cost: testCost(), Faults: faults}, func(r *Rank) error {
							r.Advance(busy(r.ID()))
							out, contrib, err := r.TreeReduce(root, fanout, allRanks(n), payload(r.ID()), combine)
							if err != nil {
								return err
							}
							returned[r.ID()] = true
							if r.ID() == root {
								fold, contributors = out, contrib
							} else if out != nil || contrib != nil {
								return fmt.Errorf("non-root rank %d got a result", r.ID())
							}
							r.Advance(2)
							r.Barrier()
							return nil
						})
						if err != nil {
							t.Fatal(err)
						}
						for _, id := range alive {
							if !returned[id] {
								t.Fatalf("rank %d was alive at the call and never returned from it", id)
							}
						}
						if dead == root {
							if fold != nil || contributors != nil {
								t.Fatalf("dead root folded %v from %v", fold, contributors)
							}
						} else {
							if !slices.Equal(contributors, alive) {
								t.Fatalf("contributors = %v, want %v", contributors, alive)
							}
							if !bytes.Equal(fold, want) {
								t.Fatalf("fold = %v, want %v", fold, want)
							}
						}
						state := fmt.Sprint(fold, contributors)
						for _, c := range clocks {
							state += fmt.Sprintf(" %x", c.Now())
						}
						return state
					}
					if first, second := run(), run(); first != second {
						t.Fatalf("two runs differ:\n%s\n%s", first, second)
					}
				})
			}
			// A schedule that kills nobody still selects the flat path.
			check("nobody", []Fault{{Rank: n - 1, At: 0, Kind: FaultDegrade, Slow: 2}}, -1)
			for _, v := range victims {
				for _, w := range whens {
					dead := v.rank
					if w.aliveAtCall {
						dead = -1
					}
					check(v.kind+"/"+w.name, []Fault{{Rank: v.rank, At: w.at(v.rank), Kind: FaultCrash}}, dead)
				}
			}
		}
	}
}

func allRanks(n int) []int {
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	return members
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
