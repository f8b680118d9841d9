package mpi

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"parblast/internal/metrics"
)

// asideWatchdog bounds how long an Aside body waits for another rank's: a
// serialised Aside would wait for ever.
const asideWatchdog = 10 * time.Second

// awaitClosed waits for ch to be closed, or reports false after the watchdog.
func awaitClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	case <-time.After(asideWatchdog):
		return false
	}
}

// TestAsideContract pins mpi.Rank.Aside beside TestExtraSchedulingPointsAreNeutral,
// which holds that an Aside moves no clock: what runs aside really runs beside
// the rest of the world, a crash is seen at its time whether its victim parked
// aside or not, and an error elsewhere while ranks are aside still unwinds
// everyone.
func TestAsideContract(t *testing.T) {
	t.Run("two ranks compute at once", func(t *testing.T) {
		// Rank 0 parks at 100 units, so rank 1 (at 0) runs and parks too:
		// each body waits for the other's to start.
		started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
		reg := metrics.NewRegistry()
		_, _, err := RunConfig(2, Config{Cost: testCost(), Metrics: reg}, func(r *Rank) error {
			id := r.ID()
			if id == 0 {
				r.Compute(100)
			}
			met := false
			r.Aside(func() {
				close(started[id])
				met = awaitClosed(started[1-id])
			})
			if !met {
				return errors.New("the other rank's Aside never started while this one ran")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		if a, p := snap.CounterTotal("mpi.asides"), snap.CounterTotal("mpi.aside_peak"); a != 2 || p != 2 {
			t.Fatalf("mpi.asides = %d, mpi.aside_peak = %d; want 2 and 2", a, p)
		}
	})

	t.Run("a crash is invisible before its time", func(t *testing.T) {
		// Rank 1 crashes at its second 10-unit charge, at 110 units; rank 2
		// asks at 99 and again at 111. Without an Aside rank 1 runs on the
		// token through its crash before rank 2 asks; with one it parks at 100
		// and rank 2 asks first. Either way the crash is seen after 110 only.
		for _, aside := range []bool{false, true} {
			reg := metrics.NewRegistry()
			faults := []Fault{{Rank: 1, At: 105 * testCost().SearchUnitCost}}
			var early, late bool
			_, _, err := RunConfig(3, Config{Cost: testCost(), Faults: faults, Metrics: reg}, func(r *Rank) error {
				switch r.ID() {
				case 1:
					r.Compute(100)
					if aside {
						r.Aside(func() {})
					}
					r.Compute(10)
					r.Compute(10)
				case 2:
					r.Compute(99)
					early = r.Failed(1)
					r.Compute(12)
					late = r.Failed(1)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if early || !late {
				t.Errorf("aside=%v: Failed(1) = %v at 99 units and %v at 111; want false, then true", aside, early, late)
			}
			want := int64(0)
			if aside {
				want = 1
			}
			if n := reg.Snapshot().CounterTotal("mpi.asides"); n != want {
				t.Errorf("aside=%v: mpi.asides = %d, want %d", aside, n, want)
			}
		}
	})

	t.Run("a body error elsewhere unwinds everyone", func(t *testing.T) {
		// Ranks 1..4 park aside at decreasing clocks and compute until rank
		// 0, at an earlier clock than all of them, has failed; then they
		// wait for a message nobody sends, and the world unwinds.
		const n = 5
		boom := errors.New("boom")
		errored := make(chan struct{})
		reg := metrics.NewRegistry()
		before := runtime.NumGoroutine()
		_, _, err := RunConfig(n, Config{Cost: testCost(), Metrics: reg}, func(r *Rank) error {
			if r.ID() == 0 {
				r.Compute(50)
				r.block(stateReady)
				close(errored)
				return boom
			}
			r.Compute(int64(100 * (n - r.ID())))
			met := false
			r.Aside(func() { met = awaitClosed(errored) })
			if !met {
				return errors.New("rank 0 never ran while this rank was aside")
			}
			r.Recv(0, 1)
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("error %v, want boom", err)
		}
		if p := reg.Snapshot().CounterTotal("mpi.aside_peak"); p != n-1 {
			t.Errorf("mpi.aside_peak = %d, want %d", p, n-1)
		}
		after := runtime.NumGoroutine()
		for i := 0; i < 200 && after > before; i++ {
			time.Sleep(time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after > before {
			t.Fatalf("%d goroutines before the run, %d after: rank goroutines leaked", before, after)
		}
	})
}
