package mpi

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"parblast/internal/simtime"
	"parblast/internal/vfs"
)

func testCost() simtime.CostModel {
	return simtime.CostModel{
		NetLatency:       1e-3,
		NetBandwidth:     1e6,
		SearchUnitCost:   1e-6,
		FormatByteCost:   1e-8,
		MergeItemCost:    1e-4,
		MemCopyBandwidth: 1e9,
	}
}

func TestRunSingleRank(t *testing.T) {
	clocks, err := Run(1, testCost(), func(r *Rank) error {
		r.Advance(1.5)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if clocks[0].Now() != 1.5 {
		t.Fatalf("clock = %g", clocks[0].Now())
	}
}

func TestSendRecvTiming(t *testing.T) {
	cost := testCost()
	payload := make([]byte, 1000) // 1ms transfer at 1 MB/s
	clocks, err := Run(2, cost, func(r *Rank) error {
		if r.ID() == 0 {
			r.Advance(5)
			r.Send(1, 7, payload)
			return nil
		}
		data, from, tag := r.Recv(0, 7)
		if from != 0 || tag != 7 || len(data) != 1000 {
			return fmt.Errorf("got %d bytes from %d tag %d", len(data), from, tag)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sender: 5 + 1ms send occupancy. Receiver: arrival 5.001+latency
	// 0.001 = wait, then 1ms receive copy.
	want0 := 5 + 0.001
	if got := clocks[0].Now(); !near(got, want0) {
		t.Fatalf("sender clock = %g, want %g", got, want0)
	}
	want1 := 5 + 0.001 + 0.001 + 0.001 // send occupancy + latency + recv copy
	if got := clocks[1].Now(); !near(got, want1) {
		t.Fatalf("receiver clock = %g, want %g", got, want1)
	}
}

func near(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

func TestRecvAnySourcePicksEarliest(t *testing.T) {
	// Rank 1 sends at t=10, rank 2 at t=1. Master's AnySource receive must
	// deliver rank 2's message first regardless of goroutine scheduling.
	var order []int
	_, err := Run(3, testCost(), func(r *Rank) error {
		switch r.ID() {
		case 1:
			r.Advance(10)
			r.Send(0, 1, []byte("late"))
		case 2:
			r.Advance(1)
			r.Send(0, 1, []byte("early"))
		case 0:
			for i := 0; i < 2; i++ {
				_, from, _ := r.Recv(AnySource, 1)
				order = append(order, from)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("receive order = %v, want [2 1]", order)
	}
}

func TestMessageOrderingSameSender(t *testing.T) {
	// Messages between one pair with the same tag arrive in send order.
	var got []byte
	_, err := Run(2, testCost(), func(r *Rank) error {
		if r.ID() == 0 {
			for i := byte(0); i < 10; i++ {
				r.Send(1, 3, []byte{i})
			}
			return nil
		}
		for i := 0; i < 10; i++ {
			data, _, _ := r.Recv(0, 3)
			got = append(got, data[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 10; i++ {
		if got[i] != i {
			t.Fatalf("order violated: %v", got)
		}
	}
}

func TestTagSelectivity(t *testing.T) {
	_, err := Run(2, testCost(), func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 5, []byte("five"))
			r.Send(1, 9, []byte("nine"))
			return nil
		}
		// Receive tag 9 first even though tag 5 arrived earlier.
		data, _, tag := r.Recv(0, 9)
		if tag != 9 || string(data) != "nine" {
			return fmt.Errorf("tag filter broken: %q tag %d", data, tag)
		}
		data, _, _ = r.Recv(0, 5)
		if string(data) != "five" {
			return fmt.Errorf("second recv got %q", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	clocks, err := Run(4, testCost(), func(r *Rank) error {
		r.Advance(float64(r.ID()) * 2) // ranks at 0, 2, 4, 6
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range clocks {
		if c.Now() < 6 {
			t.Fatalf("rank %d left barrier at %g before slowest entry", i, c.Now())
		}
		if c.Now() != clocks[0].Now() {
			t.Fatalf("ranks left barrier at different times: %g vs %g", c.Now(), clocks[0].Now())
		}
	}
}

func TestBcast(t *testing.T) {
	_, err := Run(3, testCost(), func(r *Rank) error {
		var in []byte
		if r.ID() == 1 {
			in = []byte("payload")
		}
		out := r.Bcast(1, in)
		if string(out) != "payload" {
			return fmt.Errorf("rank %d got %q", r.ID(), out)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGatherAndReduceMax(t *testing.T) {
	_, err := Run(3, testCost(), func(r *Rank) error {
		out := r.AllGather([]byte{byte(r.ID())})
		if len(out) != 3 || out[2][0] != 2 {
			return fmt.Errorf("allgather: %v", out)
		}
		// The engines reduce over the gathered payloads locally; every
		// rank must see the same maximum.
		top := byte(0)
		for _, d := range out {
			top = max(top, d[0])
		}
		if top != 2 {
			return fmt.Errorf("max over allgather = %d, want 2", top)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	// A master/worker pattern with AnySource receives must produce
	// identical clocks on every run.
	run := func() []float64 {
		clocks, err := Run(8, testCost(), func(r *Rank) error {
			if r.ID() == 0 {
				for i := 0; i < 7*3; i++ {
					data, from, _ := r.Recv(AnySource, 1)
					r.Advance(1e-4)
					r.Send(from, 2, data)
				}
				return nil
			}
			for i := 0; i < 3; i++ {
				r.Advance(float64(r.ID()) * 1e-3)
				r.Send(0, 1, make([]byte, 100*r.ID()))
				r.Recv(0, 2)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(clocks))
		for i, c := range clocks {
			out[i] = c.Now()
		}
		return out
	}
	a := run()
	for trial := 0; trial < 5; trial++ {
		b := run()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: rank %d clock %g != %g", trial, i, b[i], a[i])
			}
		}
	}
}

func TestClockMonotone(t *testing.T) {
	// Receives never move a clock backwards even when the message arrived
	// "in the past".
	clocks, err := Run(2, testCost(), func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 1, []byte("x")) // arrives ~t=0.001
			return nil
		}
		r.Advance(5) // receiver is far ahead
		r.Recv(0, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if clocks[1].Now() < 5 {
		t.Fatalf("receiver clock ran backwards: %g", clocks[1].Now())
	}
}

func TestDeadlockDetected(t *testing.T) {
	_, err := Run(2, testCost(), func(r *Rank) error {
		r.Recv(AnySource, AnyTag) // both wait forever
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

func TestBodyErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(3, testCost(), func(r *Rank) error {
		if r.ID() == 1 {
			return boom
		}
		return nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("expected boom, got %v", err)
	}
}

func TestPanicBecomesError(t *testing.T) {
	_, err := Run(2, testCost(), func(r *Rank) error {
		if r.ID() == 1 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("expected panic error, got %v", err)
	}
}

func TestErrorWhileOthersBlockedDoesNotHang(t *testing.T) {
	_, err := Run(2, testCost(), func(r *Rank) error {
		if r.ID() == 0 {
			return errors.New("early exit")
		}
		r.Recv(0, 1) // would block forever
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

// TestAbortHygiene: however a 256-rank job dies — a deadlock, a body error
// or a panic while the other 255 ranks are parked — Run reports the named
// error exactly once and every rank goroutine is gone when it returns.
func TestAbortHygiene(t *testing.T) {
	const n = 256
	boom := errors.New("boom")
	// lateRank0 lets every other rank run (and park) before rank 0 acts.
	lateRank0 := func(r *Rank) {
		r.Advance(1)
		r.block(stateReady)
	}
	for _, tc := range []struct {
		name, want string
		body       func(r *Rank) error
	}{
		{"deadlock", "deadlock", func(r *Rank) error {
			r.Recv(AnySource, AnyTag)
			return nil
		}},
		{"body error", "boom", func(r *Rank) error {
			if r.ID() != 0 {
				r.Recv(0, 1)
				return nil
			}
			lateRank0(r)
			return boom
		}},
		{"panic", "kaboom", func(r *Rank) error {
			if r.ID() != 0 {
				r.Barrier()
				return nil
			}
			lateRank0(r)
			panic("kaboom")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			_, err := Run(n, testCost(), tc.body)
			if err == nil || strings.Count(err.Error(), tc.want) != 1 {
				t.Fatalf("error %v, want %q named exactly once", err, tc.want)
			}
			if tc.name == "body error" && !errors.Is(err, boom) {
				t.Fatalf("error %v does not wrap the body's error", err)
			}
			// wg.Done is a goroutine's last act, not its exit: give the
			// runtime a moment to retire the stragglers.
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
}

func TestIOChargesContention(t *testing.T) {
	fs := vfs.MustNew(vfs.Profile{Name: "t", Latency: 0.5, Bandwidth: 1000, Channels: 1})
	clocks, err := Run(2, testCost(), func(r *Rank) error {
		r.IO(fs, 500) // 0.5 + 0.5 = 1s each, serialized
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := clocks[0].Now(), clocks[1].Now()
	if a > b {
		a, b = b, a
	}
	if !near(a, 1) || !near(b, 2) {
		t.Fatalf("IO contention wrong: %g %g (want 1, 2)", a, b)
	}
}

func TestPhaseAccounting(t *testing.T) {
	clocks, err := Run(1, testCost(), func(r *Rank) error {
		r.SetPhase(simtime.PhaseSearch)
		r.Compute(1000) // 1ms at 1µs/unit
		r.SetPhase(simtime.PhaseOutput)
		r.FormatCost(1e6) // 10ms
		r.MemCopy(1e6)    // 1ms
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	b := simtime.BreakdownOf(clocks[0])
	if !near(b.Search, 1e-3) {
		t.Fatalf("search bucket = %g", b.Search)
	}
	if !near(b.Output, 11e-3) {
		t.Fatalf("output bucket = %g", b.Output)
	}
}

func TestWorldSizeValidation(t *testing.T) {
	if _, err := Run(0, testCost(), func(*Rank) error { return nil }); err == nil {
		t.Fatal("zero ranks accepted")
	}
	bad := testCost()
	bad.NetBandwidth = 0
	if _, err := Run(1, bad, func(*Rank) error { return nil }); err == nil {
		t.Fatal("invalid cost model accepted")
	}
}

func TestRecvFilterNotStale(t *testing.T) {
	// Regression: a Recv(specific src) must not consume a queued message
	// from a different sender just because the PREVIOUS Recv's filter
	// matched it. Rank 0 first receives from 2, then from 1 — with rank
	// 2's second message already queued.
	_, err := Run(3, testCost(), func(r *Rank) error {
		switch r.ID() {
		case 2:
			r.Send(0, 7, []byte("two-a"))
			r.Send(0, 7, []byte("two-b"))
		case 1:
			r.Advance(1) // arrives later than both of rank 2's
			r.Send(0, 7, []byte("one"))
		case 0:
			data, from, _ := r.Recv(2, 7)
			if from != 2 || string(data) != "two-a" {
				return fmt.Errorf("first recv got %q from %d", data, from)
			}
			data, from, _ = r.Recv(1, 7) // two-b is queued but must NOT match
			if from != 1 || string(data) != "one" {
				return fmt.Errorf("second recv got %q from %d (stale filter)", data, from)
			}
			data, from, _ = r.Recv(2, 7)
			if string(data) != "two-b" {
				return fmt.Errorf("third recv got %q from %d", data, from)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIOOrderIsVirtualTimeOrder(t *testing.T) {
	// Two ranks issue storage accesses in loops with no scheduling point of
	// their own; the single-channel storage must still serve them in
	// virtual-time order, so both finish at (approximately) the same time
	// instead of one queueing entirely behind the other.
	fs := vfs.MustNew(vfs.Profile{Name: "t", Latency: 0.1, Bandwidth: 1e9, Channels: 1})
	clocks, err := Run(2, testCost(), func(r *Rank) error {
		for i := 0; i < 5; i++ {
			r.IO(fs, 10)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 10 ops × 0.1s on one channel = 1.0s total, interleaved fairly:
	// both ranks end within one op of each other.
	a, b := clocks[0].Now(), clocks[1].Now()
	if a > b {
		a, b = b, a
	}
	if b < 0.9 {
		t.Fatalf("ops not serialized: max clock %g", b)
	}
	if b-a > 0.11 {
		t.Fatalf("interleaving unfair: %g vs %g", a, b)
	}

	// The gap case: rank 0 reads the shared store, writes its local disk for
	// three seconds, and reads the shared store again. Rank 1's shared read
	// at t=1.5 falls into that gap and must be served there, not behind
	// rank 0's second read at t=4.
	shared := vfs.MustNew(vfs.Profile{Name: "s", Latency: 1, Bandwidth: 1e9, Channels: 1})
	local := vfs.MustNew(vfs.Profile{Name: "l", Latency: 3, Bandwidth: 1e9, Channels: 1})
	clocks, err = Run(2, testCost(), func(r *Rank) error {
		if r.ID() == 0 {
			r.IO(shared, 0) // [0, 1]
			r.IO(local, 0)  // [1, 4]
			r.IO(shared, 0) // [4, 5]
			return nil
		}
		r.Advance(1.5)
		r.IO(shared, 0) // [1.5, 2.5]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got0, got1 := clocks[0].Now(), clocks[1].Now(); !near(got0, 5) || !near(got1, 2.5) {
		t.Fatalf("clocks %g, %g; want 5 and 2.5 (rank 1 served in rank 0's gap)", got0, got1)
	}
}

// TestRecvDoesNotJumpToFutureMessage: a receive must not consume a queued
// message whose arrival lies in the receiver's future while another rank can
// still send an earlier one. Rank 1's message is queued from t=10 on; rank 2
// ping-pongs with rank 0 around t=0, so rank 0 hears from rank 2 twice first.
func TestRecvDoesNotJumpToFutureMessage(t *testing.T) {
	var order []int
	_, err := Run(3, testCost(), func(r *Rank) error {
		switch r.ID() {
		case 1:
			r.Advance(10)
			r.Send(0, 1, nil)
		case 2:
			r.Send(0, 1, nil)
			r.Recv(0, 2)
			r.Send(0, 1, nil)
		case 0:
			for i := 0; i < 3; i++ {
				_, from, _ := r.Recv(AnySource, 1)
				order = append(order, from)
				if i == 0 {
					r.Send(2, 2, nil)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[2 2 1]" {
		t.Fatalf("receive order = %v, want [2 2 1]", order)
	}
}

// TestExtraSchedulingPointsAreNeutral: the ordering rule lives in the
// operations themselves, so parking a rank at any other point — here before
// every single operation of a mixed send/recv/I-O/tree-reduce body — must
// not move any clock.
func TestExtraSchedulingPointsAreNeutral(t *testing.T) {
	const n = 7
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	run := func(point func(*Rank)) []float64 {
		shared := vfs.MustNew(vfs.Profile{Name: "s", Latency: 2e-3, Bandwidth: 1e6, Channels: 2})
		locals := make([]*vfs.FS, n)
		for i := range locals {
			locals[i] = vfs.MustNew(vfs.LocalDisk())
		}
		clocks, err := Run(n, testCost(), func(r *Rank) error {
			id := r.ID()
			point(r)
			r.Compute(int64(1000 * (n - id))) // later ranks start earlier
			point(r)
			r.IO(shared, int64(500*(id+1)))
			point(r)
			h := r.StartIO(locals[id], 4000)
			if id == 0 {
				// Greedy master: serve requests in arrival order.
				for i := 0; i < 2*(n-1); i++ {
					point(r)
					_, from, _ := r.Recv(AnySource, 1)
					point(r)
					r.Advance(1e-4)
					point(r)
					r.Send(from, 2, make([]byte, 100*from))
				}
			} else {
				for i := 0; i < 2; i++ {
					point(r)
					r.Send(0, 1, make([]byte, 300))
					point(r)
					r.Recv(0, 2)
					point(r)
					r.Compute(int64(700 * id))
					point(r)
					r.IO(shared, 2000)
				}
			}
			point(r)
			r.Wait(h)
			point(r)
			if _, _, err := r.TreeReduce(0, 2, members, rankPayload(id, 2), sumCombine); err != nil {
				return err
			}
			point(r)
			r.IO(shared, 1000)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, n)
		for i, c := range clocks {
			out[i] = c.Now()
		}
		return out
	}
	plain := run(func(*Rank) {})
	// Aside is such a point with host work in it: the rank computes while
	// parked, and the world goes on around it for as long as that takes.
	busy := func() {
		for i := 0; i < 3; i++ {
			runtime.Gosched()
		}
	}
	for name, point := range map[string]func(*Rank){
		"parked": func(r *Rank) { r.block(stateReady) },
		"aside":  func(r *Rank) { r.Aside(busy) },
	} {
		got := run(point)
		for i := range plain {
			if plain[i] != got[i] {
				t.Fatalf("%s: rank %d clock %x with extra scheduling points, %x without", name, i, got[i], plain[i])
			}
		}
	}
}

func TestHeterogeneousSpeeds(t *testing.T) {
	cfg := Config{Cost: testCost(), Speeds: []float64{1, 3}}
	clocks, err := RunConfig(2, cfg, func(r *Rank) error {
		r.Compute(1000) // 1ms at baseline speed
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !near(clocks[0].Now(), 1e-3) {
		t.Fatalf("baseline rank clock %g", clocks[0].Now())
	}
	if !near(clocks[1].Now(), 3e-3) {
		t.Fatalf("slow rank clock %g, want 3ms", clocks[1].Now())
	}
	// Negative and non-finite speeds are rejected: NaN used to run at speed
	// 1 silently and +Inf to end as a crash nobody scheduled.
	for _, s := range []float64{-1, math.NaN(), math.Inf(1)} {
		bad := Config{Cost: testCost(), Speeds: []float64{1, s}}
		_, err := RunConfig(2, bad, func(r *Rank) error { r.Compute(1000); return nil })
		if err == nil || !strings.Contains(err.Error(), "speed factor") {
			t.Fatalf("speed %g: error %v, want one naming the speed factor", s, err)
		}
	}
}

func TestCollectiveOpMismatchPanics(t *testing.T) {
	_, err := Run(2, testCost(), func(r *Rank) error {
		if r.ID() == 0 {
			r.Barrier()
		} else {
			r.Bcast(0, nil) // different collective concurrently: protocol bug
		}
		return nil
	})
	if err == nil {
		t.Fatal("mismatched collectives not diagnosed")
	}
}
