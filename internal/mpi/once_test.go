package mpi

import (
	"slices"
	"strings"
	"testing"

	"parblast/internal/metrics"
)

// liveSet is what the Once tests derive from an AllGather: which ranks
// contributed. It depends on the gathered payloads alone, as a build must.
type liveSet struct{ ranks []int }

func liveOf(all [][]byte) *liveSet {
	s := &liveSet{}
	for i, d := range all {
		if d != nil {
			s.ranks = append(s.ranks, i)
		}
	}
	return s
}

// TestOnceContract pins mpi.Once: one value per collective instance, built by
// whoever asks first and by nobody when nobody asks, never carried from one
// collective to the next — so never across a membership change.
func TestOnceContract(t *testing.T) {
	const n = 5
	all := func(int) bool { return true }
	for _, tc := range []struct {
		name   string
		rounds int
		asks   func(id int) bool
		// dawdle parks the rank between leaving a collective and asking, so
		// the others are a collective ahead when it asks.
		dawdle func(id int) bool
		faults []Fault
		// want[round] is the set the askers must see; builds and reuses the
		// run's totals.
		want           [][]int
		builds, reuses int64
	}{
		{name: "every participant asks, one builds", rounds: 1, asks: all,
			want: [][]int{{0, 1, 2, 3, 4}}, builds: 1, reuses: n - 1},
		{name: "two collectives, two values", rounds: 2, asks: all,
			want: [][]int{{0, 1, 2, 3, 4}, {0, 1, 2, 3, 4}}, builds: 2, reuses: 2 * (n - 1)},
		{name: "nobody asks, nothing is built", rounds: 2, asks: func(int) bool { return false }},
		{name: "only the workers ask", rounds: 1, asks: func(id int) bool { return id != 0 },
			want: [][]int{{0, 1, 2, 3, 4}}, builds: 1, reuses: n - 2},
		{name: "a late asker reads its own collective", rounds: 2, asks: all,
			dawdle: func(id int) bool { return id == 1 },
			want:   [][]int{{0, 1, 2, 3, 4}, {0, 1, 2, 3, 4}}, builds: 2, reuses: 2 * (n - 1)},
		{name: "a crash between two gathers", rounds: 2, asks: all,
			faults: []Fault{{Rank: 2, At: 0.5}},
			want:   [][]int{{0, 1, 2, 3, 4}, {0, 1, 3, 4}}, builds: 2, reuses: (n - 1) + (n - 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			seen := make([][]*liveSet, tc.rounds) // per round, per rank
			for i := range seen {
				seen[i] = make([]*liveSet, n)
			}
			_, _, err := RunConfig(n, Config{Cost: testCost(), Faults: tc.faults, Metrics: reg}, func(r *Rank) error {
				for round := 0; round < tc.rounds; round++ {
					gathered := r.AllGather([]byte{byte(round)})
					if tc.dawdle != nil && tc.dawdle(r.ID()) {
						r.Failed(0) // parks: everyone else runs on
					}
					if tc.asks(r.ID()) {
						seen[round][r.ID()] = Once(r, "test.live", func() *liveSet { return liveOf(gathered) })
					}
					r.Advance(1) // the scheduled crash fires at the next operation
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for round, perRank := range seen {
				var first *liveSet
				for id, got := range perRank {
					if got == nil {
						continue
					}
					if first == nil {
						first = got
					}
					if got != first {
						t.Errorf("round %d: rank %d got its own value, want the one shared value", round, id)
					}
					if !slices.Equal(got.ranks, tc.want[round]) {
						t.Errorf("round %d: rank %d sees %v, want %v", round, id, got.ranks, tc.want[round])
					}
				}
				if round > 0 && first != nil && first == seen[round-1][0] {
					t.Errorf("round %d reuses round %d's value", round, round-1)
				}
			}
			snap := reg.Snapshot()
			if got := snap.CounterTotal("test.live_builds"); got != tc.builds {
				t.Errorf("builds = %d, want %d", got, tc.builds)
			}
			if got := snap.CounterTotal("test.live_reuses"); got != tc.reuses {
				t.Errorf("reuses = %d, want %d", got, tc.reuses)
			}
			for _, c := range snap.Counters {
				if strings.HasPrefix(c.Name, "test.live") && c.Rank != 0 {
					t.Errorf("%s booked under rank %d: who asked first is a host artifact", c.Name, c.Rank)
				}
			}
		})
	}
}

// TestOnceBeforeAnyCollective: asking with no collective behind the rank is a
// caller bug and fails the run instead of inventing a value.
func TestOnceBeforeAnyCollective(t *testing.T) {
	_, err := Run(2, testCost(), func(r *Rank) error {
		Once(r, "test.none", func() int { return 1 })
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "before its first collective") {
		t.Fatalf("err = %v, want the Once misuse named", err)
	}
}
