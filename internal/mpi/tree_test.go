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
				combined, contributors, err := r.TreeReduce(0, fanout, nil, rankPayload(r.ID(), width), sumCombine)
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

// TestTreeReduceThenBarrier: a barrier after the hop-by-hop reduction, whose
// ranks leave at different clocks, releases every rank at one time.
func TestTreeReduceThenBarrier(t *testing.T) {
	const n = 11
	clocks, err := Run(n, testCost(), func(r *Rank) error {
		if _, _, err := r.TreeReduce(0, 4, nil, rankPayload(r.ID(), 1), sumCombine); err != nil {
			return err
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, c := range clocks {
		if c.Now() != clocks[0].Now() {
			t.Fatalf("rank %d left the barrier at %g, rank 0 at %g", id, c.Now(), clocks[0].Now())
		}
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
			Faults: []Fault{{Rank: victim, At: 0}},
		}
		_, _, err := RunConfig(n, cfg, func(r *Rank) error {
			out, contrib, err := r.TreeReduce(0, fanout, nil, rankPayload(r.ID(), width), sumCombine)
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
		clocks, _, err := RunConfig(n, cfg, body)
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
// folds exactly the ranks that were alive when they made the call — a
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
			topo := treeTopo{root: root, fanout: fanout, n: n}
			type victim struct {
				kind string
				rank int
			}
			victims := []victim{{"leaf", topo.rank(n - 1)}, {"root", root}}
			if first, end := topo.children(1); first < end {
				victims = append(victims, victim{"interior", topo.rank(1)})
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
							out, contrib, err := r.TreeReduce(root, fanout, nil, payload(r.ID()), combine)
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
			// A schedule that kills nobody still selects the flat path: its
			// one crash is due after the run ends (the barrier past t=2).
			check("nobody", []Fault{{Rank: n - 1, At: 10}}, -1)
			for _, v := range victims {
				for _, w := range whens {
					dead := v.rank
					if w.aliveAtCall {
						dead = -1
					}
					check(v.kind+"/"+w.name, []Fault{{Rank: v.rank, At: w.at(v.rank)}}, dead)
				}
			}
		}
	}
}

// TestTreeReduceBarePayloads pins the fault-free wire: with a concatenating
// combiner, which reveals the fold order, the root's fold is a pre-order walk
// of the layout, its contributors are every rank, and every tree edge
// carries the sender's partial fold and not one byte more.
func TestTreeReduceBarePayloads(t *testing.T) {
	concat := func(a, b []byte) []byte { return append(slices.Clone(a), b...) }
	for _, n := range []int{2, 13, 64} {
		for _, fanout := range []int{2, 3, 8} {
			for _, root := range []int{0, n / 2, n - 1} {
				topo := treeTopo{root: root, fanout: fanout, n: n}
				var walk func(p int) []byte
				walk = func(p int) []byte {
					out := []byte{byte(topo.rank(p))}
					for c, end := topo.children(p); c < end; c++ {
						out = append(out, walk(c)...)
					}
					return out
				}
				var edgeBytes int64
				for p := 1; p < n; p++ {
					edgeBytes += int64(len(walk(p)))
				}
				reg := metrics.NewRegistry()
				var fold []byte
				var contributors []int
				_, _, err := RunConfig(n, Config{Cost: testCost(), Metrics: reg}, func(r *Rank) error {
					out, contrib, err := r.TreeReduce(root, fanout, nil, []byte{byte(r.ID())}, concat)
					if r.ID() == root {
						fold, contributors = out, contrib
					}
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("n=%d fanout=%d root=%d", n, fanout, root)
				if want := walk(0); !bytes.Equal(fold, want) {
					t.Errorf("%s: fold %v, want the pre-order walk %v", name, fold, want)
				}
				if !slices.Equal(contributors, allRanks(n)) {
					t.Errorf("%s: contributors %v, want every rank", name, contributors)
				}
				snap := reg.Snapshot()
				var got int64
				for level := 1; level <= topo.depth(n-1); level++ {
					got += snap.CounterTotal(fmt.Sprintf("mpi.tree.level%02d.bytes", level))
				}
				if got != edgeBytes {
					t.Errorf("%s: tree edges carried %d bytes, the forwarded folds are %d", name, got, edgeBytes)
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
	_, _, err := RunConfig(n, cfg, func(r *Rank) error {
		r.AllGather([]byte("abcd"))
		var b []byte
		if r.ID() == 0 {
			b = []byte("xyz")
		}
		r.Bcast(0, b)
		r.TreeReduce(0, 2, nil, []byte{1}, func(a, b []byte) []byte { return a })
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
