package mpi

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"parblast/internal/metrics"
	"parblast/internal/vfs"
)

// earliestEligibleScan is the grant rule written as a scan of every rank, the
// way the scheduler chose before it kept the eligibility heap: the rank whose
// next event is earliest in virtual time (ties to the lowest id), or -1 when
// no rank can run. It is the oracle the heap is held to.
func (w *World) earliestEligibleScan() int {
	bestRank := -1
	bestTime := math.Inf(1)
	for i := range w.ranks {
		r := &w.ranks[i]
		var t float64
		switch r.state {
		case stateReady:
			t = r.clock.Now()
		case stateBlockedRecv:
			// A receive with a deadline is always eligible: it wakes at the
			// earliest of the match, the timeout and — so that ErrRankFailed
			// is reported at the time it became true — a source crash it sees.
			dl := r.recvDeadline
			t = dl
			if k := r.earliestMatch(); k >= 0 {
				t = math.Min(t, r.inbox[k].arrival)
			}
			if src := r.recvSrc; !math.IsInf(dl, 1) && w.crashSeen(src, dl, i) {
				t = math.Min(t, w.ranks[src].crashTime)
			}
			if math.IsInf(t, 1) {
				continue
			}
			t = math.Max(t, r.clock.Now())
		default:
			continue
		}
		if t < bestTime || (t == bestTime && i < bestRank) {
			bestTime = t
			bestRank = i
		}
	}
	return bestRank
}

// heapFault names the first way the eligibility heap disagrees with the
// ranks' states, or returns "": every rank with an event is filed at exactly
// eligibleAt, every other rank is off the heap, and the heap is ordered.
func (w *World) heapFault() string {
	for i := range w.ranks {
		r := &w.ranks[i]
		t := w.eligibleAt(r)
		switch {
		case !(t < math.Inf(1)) && r.slot >= 0:
			return fmt.Sprintf("rank %d (%s) has no event but is filed at %+v", i, r.state, w.eligible[r.slot])
		case t < math.Inf(1) && r.slot < 0:
			return fmt.Sprintf("rank %d (%s) has an event at %g but is not filed", i, r.state, t)
		case r.slot >= 0 && w.eligible[r.slot] != (event{at: t, id: i}):
			return fmt.Sprintf("rank %d (%s) is filed as %+v in slot %d, its event is at %g", i, r.state, w.eligible[r.slot], r.slot, t)
		}
	}
	for k := 1; k < len(w.eligible); k++ {
		if w.eligible[k].before(w.eligible[(k-1)/2]) {
			return fmt.Sprintf("heap slot %d comes before its parent", k)
		}
	}
	return ""
}

// scanOracle is a grantCheck that holds every grant to the scan and the heap
// to the ranks' states, reporting the first disagreement; *grants counts the
// grants it saw.
func scanOracle(t testing.TB, grants *int) func(*World, int) {
	failed := false
	return func(w *World, next int) {
		*grants++
		if failed {
			return
		}
		if want := w.earliestEligibleScan(); next != want {
			failed = true
			t.Errorf("grant %d: the heap chose rank %d, the scan rank %d", *grants, next, want)
		} else if msg := w.heapFault(); msg != "" {
			failed = true
			t.Errorf("grant %d: %s", *grants, msg)
		}
	}
}

// randomProgram is a seeded SPMD program over every primitive that parks a
// rank or moves another rank's event: point-to-point rings and fan-ins (exact
// sources, AnySource, tags, timeouts), the flat collectives, the tree
// reduction and the point-to-point answers that follow it in a merge, Aside,
// storage accesses and failure queries. Every rank draws the round's
// operation from the same stream, so all of them run the same collectives;
// the parameters each draws are its own. Under a fault schedule every receive
// tolerates a dead source, so most runs live long enough for the crashes to
// land at the door of a collective, inside one and during receive deadlines.
func randomProgram(seed int64, rounds int, fs *vfs.FS) func(*Rank) error {
	return func(r *Rank) error {
		n, id := r.Size(), r.ID()
		shared := rand.New(rand.NewSource(seed))
		own := rand.New(rand.NewSource(seed*7919 + int64(id)))
		faults := r.faultsScheduled()
		recv := func(src, tag int) {
			if faults {
				r.RecvCrashAware(src, tag)
				return
			}
			r.Recv(src, tag)
		}
		for round := range rounds {
			op, k := shared.Intn(11), 1+shared.Intn(max(n-1, 1))
			r.Advance(own.Float64() * 0.02)
			switch op {
			case 0: // ring with exact sources
				r.Send((id+k)%n, round, make([]byte, own.Intn(2000)))
				recv((id-k+n)%n, round)
			case 1: // ring polled with a short deadline first
				r.Send((id+k)%n, round, make([]byte, own.Intn(2000)))
				src := (id - k + n) % n
				if _, _, _, err := r.RecvTimeout(src, round, own.Float64()*0.003); errors.Is(err, ErrTimeout) {
					recv(src, round)
				}
			case 2: // fan-in to rank 0
				if id != 0 {
					r.Send(0, round, make([]byte, own.Intn(500)))
				} else if faults {
					for src := 1; src < n; src++ {
						r.RecvCrashAware(src, round)
					}
				} else {
					for range n - 1 {
						r.Recv(AnySource, round)
					}
				}
			case 3:
				r.Barrier()
			case 4:
				r.Bcast(shared.Intn(n), make([]byte, own.Intn(300)))
			case 5:
				r.AllGather(make([]byte, own.Intn(300)))
			case 6:
				if _, _, err := r.TreeReduce(shared.Intn(n), 2+shared.Intn(3), nil, rankPayload(id, 1), sumCombine); err != nil {
					return err
				}
			case 7: // a tree merge: the reduction, then the root answers each member
				root := shared.Intn(n)
				if _, _, err := r.TreeReduce(root, 2+shared.Intn(3), nil, rankPayload(id, 1), sumCombine); err != nil {
					return err
				}
				if id != root {
					recv(root, round)
					break
				}
				for m := range n {
					if m != root {
						r.Send(m, round, make([]byte, own.Intn(300)))
					}
				}
			case 8:
				r.Aside(func() {})
			case 9:
				r.IO(fs, int64(own.Intn(4000)))
			case 10:
				r.Failed(own.Intn(n))
			}
		}
		return nil
	}
}

// TestHeapGrantsMatchScan: on seeded random programs, fault-free and under
// seeded crash schedules, every grant the eligibility heap makes is
// the scan's, and at every grant each rank is filed at exactly its event
// time. The fault-free engines' configurations are held to the same oracle in
// engines_test.go.
func TestHeapGrantsMatchScan(t *testing.T) {
	const seeds = 240
	grants := 0
	reg := metrics.NewRegistry()
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		var faults []Fault
		if seed%4 != 0 {
			perm, k := rng.Perm(n), 1+rng.Intn(2)
			for _, v := range perm[:k] {
				at := rng.Float64() * 0.4
				if rng.Intn(4) == 0 {
					at = 0 // at its first operation: often the door of a collective
				}
				faults = append(faults, Fault{Rank: v, At: at})
			}
			if k < n && rng.Intn(3) == 0 {
				// Scheduled past the run's end: a crash that never fires.
				faults = append(faults, Fault{Rank: perm[k], At: 1e3})
			}
		}
		fs := vfs.MustNew(vfs.Profile{Name: "t", Latency: 1e-3, Bandwidth: 1e8, Channels: 2})
		before := grants
		cfg := Config{Cost: testCost(), Faults: faults, Metrics: reg, grantCheck: scanOracle(t, &grants)}
		_, _, err := RunConfig(n, cfg, randomProgram(seed, 14, fs))
		if err != nil && len(faults) == 0 {
			t.Fatalf("seed %d: fault-free program failed: %v", seed, err)
		}
		if grants == before {
			t.Fatalf("seed %d: no grant was checked", seed)
		}
		if t.Failed() {
			t.Fatalf("seed %d, %d ranks, faults %+v", seed, n, faults)
		}
	}
	snap := reg.Snapshot()
	crashed := snap.CounterTotal("mpi.recv_failed_peer")
	// The sweep must reach what it is for: receives that see a crash at their
	// deadline, receives that time out, and several thousand grants.
	if crashed == 0 || snap.CounterTotal("mpi.recv_timeouts") == 0 || grants < 20*seeds {
		t.Fatalf("sweep too thin: %d grants over %d runs, %d crash-seen receives, %d timeouts",
			grants, seeds, crashed, snap.CounterTotal("mpi.recv_timeouts"))
	}
}

// TestRekeysPerGrantFlatInRanks: the scheduler's host work per grant does not
// grow with the world. The same tree-collective loop runs at 32 and at 512
// ranks; both series are deterministic, so this needs no host timing. A scan
// of every rank per grant would be 16 times the work at 512 ranks; the heap's
// re-keys per grant stay within 1.5 times.
func TestRekeysPerGrantFlatInRanks(t *testing.T) {
	perGrant := func(n int) float64 {
		reg := metrics.NewRegistry()
		_, _, err := RunConfig(n, Config{Cost: testCost(), Metrics: reg}, func(r *Rank) error {
			for range 4 {
				r.Advance(float64(r.ID()%7) * 1e-4)
				if _, _, err := r.TreeReduce(0, DefaultTreeFanout, nil, rankPayload(r.ID(), 1), sumCombine); err != nil {
					return err
				}
				r.Bcast(0, []byte{1})
				r.Barrier()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		grants, rekeys := snap.CounterTotal("mpi.grants"), snap.CounterTotal("mpi.eligibility_updates")
		if grants < int64(n) {
			t.Fatalf("%d ranks: %d grants", n, grants)
		}
		return float64(rekeys) / float64(grants)
	}
	small, large := perGrant(32), perGrant(512)
	if large > 1.5*small {
		t.Fatalf("re-keys per grant: %.3f at 512 ranks, %.3f at 32 — the scheduler's work per grant grows with the world", large, small)
	}
	t.Logf("re-keys per grant: %.3f at 32 ranks, %.3f at 512", small, large)
}
