package mpi

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"parblast/internal/trace"
	"parblast/internal/vfs"
)

// TestSingleRankCollectivesFree: a world of one pays no tree latency for
// collectives (logSteps(1) must be 0, not 1 — regression for the ceil-log2
// off-by-one that charged a lone rank one latency step per collective).
func TestSingleRankCollectivesFree(t *testing.T) {
	clocks, err := Run(1, testCost(), func(r *Rank) error {
		r.Barrier()
		got := r.Bcast(0, []byte("payload"))
		if string(got) != "payload" {
			return fmt.Errorf("bcast returned %q", got)
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Bcast still pays the payload transfer; latency terms must be zero.
	want := float64(len("payload")) / testCost().NetBandwidth
	if got := clocks[0].Now(); !near(got, want) {
		t.Fatalf("single-rank collectives advanced clock to %g, want %g (latency leaked in)", got, want)
	}
}

func TestLogSteps(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}} {
		if got := logSteps(tc.n); got != tc.want {
			t.Errorf("logSteps(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

// TestCollectiveBytesBucket: collective payloads must land in their own
// CommStats bucket, not in the protocol bucket the §3.2 metric reads.
func TestCollectiveBytesBucket(t *testing.T) {
	comm := NewCommStats(2)
	cfg := Config{Cost: testCost(), Comm: comm}
	_, err := RunConfig(2, cfg, func(r *Rank) error {
		r.Bcast(0, []byte("0123456789")) // 10 collective bytes from root
		if r.ID() == 0 {
			r.Send(1, 3, make([]byte, 100))                 // protocol
			r.Send(1, ShuffleTagBase+1, make([]byte, 1000)) // shuffle
			r.Send(1, 4, nil)                               // protocol, 0 bytes
		} else {
			r.Recv(0, 3)
			r.Recv(0, ShuffleTagBase+1)
			r.Recv(0, 4)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	protocol, shuffle, collective, messages := comm.Totals()
	if protocol != 100 {
		t.Errorf("protocol bytes = %d, want 100 (collective payloads leaked in?)", protocol)
	}
	if shuffle != 1000 {
		t.Errorf("shuffle bytes = %d, want 1000", shuffle)
	}
	if collective != 10 {
		t.Errorf("collective bytes = %d, want 10", collective)
	}
	// 2 collective entries + 3 sends.
	if messages != 5 {
		t.Errorf("messages = %d, want 5", messages)
	}
	p0, _, c0, _ := comm.Rank(0)
	p1, _, c1, _ := comm.Rank(1)
	if p0 != 100 || p1 != 0 {
		t.Errorf("per-rank protocol = %d/%d, want 100/0", p0, p1)
	}
	if c0 != 10 || c1 != 0 {
		t.Errorf("per-rank collective = %d/%d, want 10/0 (only root carries the payload)", c0, c1)
	}
}

// TestCrashExcludedFromCollectives: survivors' Barrier completes even when
// a scheduled crash removes a participant before it joins.
func TestCrashExcludedFromCollectives(t *testing.T) {
	cfg := Config{
		Cost:   testCost(),
		Faults: []Fault{{Rank: 2, At: 1.0, Kind: FaultCrash}},
	}
	clocks, err := RunConfig(3, cfg, func(r *Rank) error {
		if r.ID() == 2 {
			r.Advance(2) // sails past At=1; the next op crashes
		}
		r.Barrier()
		// The detector's ground truth: exactly the victim is failed, and a
		// receive from it names when it died.
		for id := 0; id < 3; id++ {
			if got, want := r.Failed(id), id == 2; got != want {
				return fmt.Errorf("Failed(%d) = %v, want %v", id, got, want)
			}
		}
		_, _, _, err := r.RecvTimeout(2, 9, 1)
		if !errors.Is(err, ErrRankFailed) || !strings.Contains(err.Error(), "crashed at t=2.000000") {
			return fmt.Errorf("recv from the victim: %v, want ErrRankFailed naming t=2", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The dead rank's clock froze at its crash; survivors moved on.
	if got := clocks[2].Now(); got != 2.0 {
		t.Fatalf("victim clock = %g, want 2 (frozen at crash)", got)
	}
}

// TestRecvTimeoutExpires: with no sender, RecvTimeout returns ErrTimeout
// and advances the clock exactly to the deadline (polling makes progress).
func TestRecvTimeoutExpires(t *testing.T) {
	clocks, err := Run(2, testCost(), func(r *Rank) error {
		if r.ID() != 0 {
			return nil
		}
		data, _, _, err := r.RecvTimeout(1, 9, 0.25)
		if !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("err = %v, want ErrTimeout", err)
		}
		if data != nil {
			return fmt.Errorf("data = %v on timeout", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := clocks[0].Now(); !near(got, 0.25) {
		t.Fatalf("clock after timeout = %g, want 0.25", got)
	}
}

// TestRecvTimeoutFromCrashed: awaiting a specific crashed rank fails fast
// with ErrRankFailed (wrapped, naming the crash time) instead of timing out
// — fast in virtual time too: the receiver resumes at the time the failure
// became true, not at its deadline, so its next storage access is not booked
// behind one that rank 2 makes 48 seconds later.
func TestRecvTimeoutFromCrashed(t *testing.T) {
	cfg := Config{
		Cost:   testCost(),
		Faults: []Fault{{Rank: 1, At: 0.5, Kind: FaultCrash}},
	}
	fs := vfs.MustNew(vfs.Profile{Name: "t", Latency: 1, Bandwidth: 1e9, Channels: 1})
	clocks, err := RunConfig(3, cfg, func(r *Rank) error {
		switch r.ID() {
		case 1:
			r.Advance(1) // dies at the next op
			r.Barrier()
		case 2:
			r.Advance(50)
			r.IO(fs, 0)
		case 0:
			r.Advance(2) // make sure the crash is in the past
			_, _, _, err := r.RecvTimeout(1, 9, 100)
			if !errors.Is(err, ErrRankFailed) {
				return fmt.Errorf("err = %v, want ErrRankFailed", err)
			}
			if !strings.Contains(err.Error(), "crashed at t=") {
				return fmt.Errorf("error %q does not name the crash time", err)
			}
			r.IO(fs, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := clocks[0].Now(); !near(got, 3) {
		t.Fatalf("rank 0 clock = %g, want 3 (failure seen at t=2, then a 1 s access on a free channel)", got)
	}
}

// TestRecvCrashAware: the polling receive completes at exactly the clock a
// blocking Recv of the same message completes at, however many detection
// intervals pass first, and a source that is dead surfaces as ErrRankFailed
// instead of the world-abort a plain Recv ends in.
func TestRecvCrashAware(t *testing.T) {
	cfg := Config{
		Cost:   testCost(),
		Faults: []Fault{{Rank: 2, At: 0.5, Kind: FaultCrash}},
	}
	world := func(recv func(r *Rank) ([]byte, error)) float64 {
		var got float64
		_, err := RunConfig(3, cfg, func(r *Rank) error {
			switch r.ID() {
			case 1:
				r.Advance(0.9) // more than three detection intervals
				r.Send(0, 9, []byte("late"))
			case 2:
				r.Advance(1)
				r.Barrier() // dies here
			case 0:
				data, err := recv(r)
				if err != nil || string(data) != "late" {
					return fmt.Errorf("recv = %q, %v", data, err)
				}
				got = r.Clock().Now()
				if _, err := r.RecvCrashAware(2, 9); !errors.Is(err, ErrRankFailed) {
					return fmt.Errorf("dead source: err = %v, want ErrRankFailed", err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	blocking := world(func(r *Rank) ([]byte, error) { data, _, _ := r.Recv(1, 9); return data, nil })
	polling := world(func(r *Rank) ([]byte, error) { return r.RecvCrashAware(1, 9) })
	if polling != blocking || polling < 0.9 {
		t.Fatalf("polling receive completed at %g, blocking at %g", polling, blocking)
	}
}

// TestRecvFromCrashedAborts: a plain (deadline-free) Recv on a dead peer is
// an unrecoverable stall; the abort must say WHO crashed, not "deadlock".
func TestRecvFromCrashedAborts(t *testing.T) {
	cfg := Config{
		Cost:   testCost(),
		Faults: []Fault{{Rank: 1, At: 0.5, Kind: FaultCrash}},
	}
	_, err := RunConfig(2, cfg, func(r *Rank) error {
		if r.ID() == 1 {
			r.Advance(1)
			r.Barrier() // dies here
			return nil
		}
		r.Recv(1, 9) // never satisfiable
		return nil
	})
	if err == nil {
		t.Fatal("expected an abort error")
	}
	if !strings.Contains(err.Error(), "unrecovered rank failure") ||
		!strings.Contains(err.Error(), "rank 1 crashed") {
		t.Fatalf("abort error %q should name the crashed rank", err)
	}
	if strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("crash-induced stall misreported as deadlock: %q", err)
	}
}

// TestFaultMarksOnTrace: every scheduled fault marks the victim's timeline on
// Config.Trace exactly once, named by its kind, at a time at or after the
// scheduled At.
func TestFaultMarksOnTrace(t *testing.T) {
	col := trace.NewCollector()
	cfg := Config{
		Cost: testCost(),
		Faults: []Fault{
			{Rank: 1, At: 0.5, Kind: FaultCrash},
			{Rank: 2, At: 0.25, Kind: FaultDegrade, Slow: 4},
		},
		Trace: col,
	}
	_, err := RunConfig(3, cfg, func(r *Rank) error {
		r.Advance(1)
		r.Compute(1000)
		r.Compute(1000) // a degrade is marked once, not per slowed call
		if r.ID() == 1 {
			r.Barrier() // crash fires here
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if evs := col.Events(0); len(evs) != 0 {
		t.Fatalf("rank 0 has no fault but carries %v", evs)
	}
	// Both fire at the victim's first operation at or after At: the t=1
	// compute.
	for rank, want := range map[int]string{1: "crash", 2: "degrade"} {
		evs := col.Events(rank)
		if len(evs) != 1 || evs[0].Name != want || evs[0].At != 1 ||
			evs[0].Attrs["kind"] != want || evs[0].Attrs["rank"] != fmt.Sprint(rank) {
			t.Fatalf("rank %d events %+v, want one %s mark at t=1", rank, evs, want)
		}
	}
}

// TestDegradeSlowsCompute: past At, compute costs Slow× more; work done
// before At is unaffected.
func TestDegradeSlowsCompute(t *testing.T) {
	cfg := Config{
		Cost:   testCost(),
		Faults: []Fault{{Rank: 1, At: 0.0, Kind: FaultDegrade, Slow: 3}},
	}
	clocks, err := RunConfig(2, cfg, func(r *Rank) error {
		r.Compute(1_000_000) // 1s at baseline speed
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := clocks[0].Now(); !near(got, 1.0) {
		t.Fatalf("healthy rank clock = %g, want 1", got)
	}
	if got := clocks[1].Now(); !near(got, 3.0) {
		t.Fatalf("degraded rank clock = %g, want 3", got)
	}
}

// TestFaultValidation rejects malformed fault schedules up front, naming
// what is wrong with them.
func TestFaultValidation(t *testing.T) {
	body := func(r *Rank) error { return nil }
	for _, tc := range []struct {
		name   string
		faults []Fault
		want   string
	}{
		{"bad rank", []Fault{{Rank: 7, At: 1, Kind: FaultCrash}}, "invalid rank 7"},
		{"negative time", []Fault{{Rank: 1, At: -1, Kind: FaultCrash}}, "invalid time -1"},
		{"double crash", []Fault{{Rank: 1, At: 1, Kind: FaultCrash}, {Rank: 1, At: 2, Kind: FaultCrash}}, "more than one scheduled crash"},
		{"degrade without slow", []Fault{{Rank: 1, At: 1, Kind: FaultDegrade}}, "needs Slow > 0"},
		{"NaN slow", []Fault{{Rank: 1, At: 1, Kind: FaultDegrade, Slow: math.NaN()}}, "non-finite Slow"},
		{"infinite slow", []Fault{{Rank: 1, At: 1, Kind: FaultDegrade, Slow: math.Inf(1)}}, "non-finite Slow"},
		{"NaN time", []Fault{{Rank: 1, At: math.NaN(), Kind: FaultCrash}}, "invalid time NaN"},
		// Used to mean "never" while arming FaultsScheduled for the whole run.
		{"infinite time", []Fault{{Rank: 1, At: math.Inf(1), Kind: FaultCrash}}, "invalid time +Inf"},
		{"unknown kind", []Fault{{Rank: 1, At: 1, Kind: FaultKind(99)}}, "unknown fault kind 99"},
	} {
		cfg := Config{Cost: testCost(), Faults: tc.faults}
		if _, err := RunConfig(2, cfg, body); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestRecvTimeoutDeterminism: the same fault schedule and timeout-driven
// protocol must reproduce the exact same event history and final clocks.
func TestRecvTimeoutDeterminism(t *testing.T) {
	scenario := func() (string, []float64, error) {
		var log strings.Builder
		cfg := Config{
			Cost:   testCost(),
			Faults: []Fault{{Rank: 2, At: 0.12, Kind: FaultCrash}},
		}
		clocks, err := RunConfig(3, cfg, func(r *Rank) error {
			switch r.ID() {
			case 1:
				r.Advance(0.07)
				r.Send(0, 1, []byte("from1"))
			case 2:
				r.Advance(0.2)
				r.Send(0, 1, []byte("from2")) // never sent: dead at 0.2
			case 0:
				got := 0
				for tries := 0; tries < 10 && got < 2; tries++ {
					data, from, _, err := r.RecvTimeout(AnySource, 1, 0.05)
					switch {
					case err == nil:
						fmt.Fprintf(&log, "recv %q from %d at %.3f; ", data, from, r.Clock().Now())
						got++
					case errors.Is(err, ErrTimeout):
						fmt.Fprintf(&log, "timeout at %.3f; ", r.Clock().Now())
					default:
						fmt.Fprintf(&log, "err %v; ", err)
					}
					if r.Failed(2) && got == 1 {
						fmt.Fprintf(&log, "detected crash of 2; ")
						break
					}
				}
			}
			return nil
		})
		finals := make([]float64, len(clocks))
		for i, c := range clocks {
			finals[i] = c.Now()
		}
		return log.String(), finals, err
	}
	log1, clocks1, err1 := scenario()
	log2, clocks2, err2 := scenario()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if log1 != log2 {
		t.Fatalf("event histories diverged:\n%s\n%s", log1, log2)
	}
	for i := range clocks1 {
		if clocks1[i] != clocks2[i] {
			t.Fatalf("rank %d final clock diverged: %g vs %g", i, clocks1[i], clocks2[i])
		}
	}
	if !strings.Contains(log1, `recv "from1" from 1`) {
		t.Fatalf("rank 1's message was not delivered: %s", log1)
	}
	if !strings.Contains(log1, "detected crash of 2") {
		t.Fatalf("crash of rank 2 went undetected: %s", log1)
	}
}
