package mpi

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"parblast/internal/metrics"
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
	}{{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10}, {1025, 11}, {4096, 12}} {
		if got := logSteps(tc.n); got != tc.want {
			t.Errorf("logSteps(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	// The math oracle the integer rule replaced.
	for n := 2; n <= 1<<16; n++ {
		if got, want := logSteps(n), math.Ceil(math.Log2(float64(n))); got != want {
			t.Fatalf("logSteps(%d) = %g, want %g", n, got, want)
		}
	}
}

// TestCollectiveBytesBucket: collective payloads must land in their own
// Traffic bucket, not in the protocol bucket the §3.2 metric reads.
func TestCollectiveBytesBucket(t *testing.T) {
	_, sent, err := RunConfig(2, Config{Cost: testCost()}, func(r *Rank) error {
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
	total := TotalTraffic(sent)
	protocol, shuffle, collective, messages := total.Protocol, total.Shuffle, total.Collective, total.Messages
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
	p0, c0 := sent[0].Protocol, sent[0].Collective
	p1, c1 := sent[1].Protocol, sent[1].Collective
	if p0 != 100 || p1 != 0 {
		t.Errorf("per-rank protocol = %d/%d, want 100/0", p0, p1)
	}
	if c0 != 10 || c1 != 0 {
		t.Errorf("per-rank collective = %d/%d, want 10/0 (only root carries the payload)", c0, c1)
	}
}

// TestCrashFiresOnce: a rank operation the body defers past its own crash
// unwinds the rank again without crashing it a second time, so the live
// count the collectives wait for drops once: rank 0's second barrier still
// waits for rank 1.
func TestCrashFiresOnce(t *testing.T) {
	cfg := Config{Cost: testCost(), Faults: []Fault{{Rank: 2, At: 1}}}
	clocks, _, err := RunConfig(3, cfg, func(r *Rank) error {
		switch r.ID() {
		case 0:
			r.Barrier()
		case 1:
			r.Barrier()
			r.Advance(5)
		case 2:
			defer r.Barrier()
			r.Advance(2)
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := clocks[0].Now(); got < 5 {
		t.Fatalf("rank 0 left its second barrier at t=%g, before rank 1 entered it at t=5", got)
	}
}

// TestCrashExcludedFromCollectives: survivors' Barrier completes even when
// a scheduled crash removes a participant before it joins — the victim
// crashes at its door at t=2, the survivors leave at 2 ms and see the crash
// only from t=2 on.
func TestCrashExcludedFromCollectives(t *testing.T) {
	cfg := Config{
		Cost:   testCost(),
		Faults: []Fault{{Rank: 2, At: 1.0}},
	}
	failed := func(r *Rank, victim bool) error {
		for id := 0; id < 3; id++ {
			if got, want := r.Failed(id), victim && id == 2; got != want {
				return fmt.Errorf("Failed(%d) = %v at t=%g, want %v", id, got, r.Clock().Now(), want)
			}
		}
		return nil
	}
	clocks, _, err := RunConfig(3, cfg, func(r *Rank) error {
		if r.ID() == 2 {
			r.Advance(2) // sails past At=1; the next op crashes
		}
		r.Barrier()
		// The detector's ground truth: nobody has failed yet, a receive that
		// ends before t=2 times out, and one whose deadline spans it names
		// when the victim died and resumes then.
		if err := failed(r, false); err != nil {
			return err
		}
		if _, _, _, err := r.RecvTimeout(2, 9, 1); !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("recv from the victim ending at t=%g: %v, want ErrTimeout", r.Clock().Now(), err)
		}
		_, _, _, err := r.RecvTimeout(2, 9, 1.5)
		if !errors.Is(err, ErrRankFailed) || !strings.Contains(err.Error(), "crashed at t=2.000000") || r.Clock().Now() != 2 {
			return fmt.Errorf("recv from the victim spanning t=2: %v at t=%g, want ErrRankFailed naming t=2 at t=2", err, r.Clock().Now())
		}
		r.Advance(1e-3)
		return failed(r, true)
	})
	if err != nil {
		t.Fatal(err)
	}
	// The dead rank's clock froze at its crash; survivors moved on.
	if got := clocks[2].Now(); got != 2.0 {
		t.Fatalf("victim clock = %g, want 2 (frozen at crash)", got)
	}
}

// TestCrashTieGoesToTheLowerID: a crash and a question at the same virtual
// time are ordered as the scheduler orders them — time, then rank id — so the
// asker sees the crash only if the victim's id is lower than its own, through
// Failed at its clock and RecvTimeout at its deadline alike, whether or not the
// victim parks aside on the way to its crash.
func TestCrashTieGoesToTheLowerID(t *testing.T) {
	const at = 0.25
	for _, aside := range []bool{false, true} {
		seen := make([]bool, 3)
		recvErr := make([]error, 3)
		cfg := Config{Cost: testCost(), Faults: []Fault{{Rank: 1, At: at}}}
		_, _, err := RunConfig(3, cfg, func(r *Rank) error {
			id := r.ID()
			if id == 1 {
				r.Advance(at)
				if aside {
					r.Aside(func() {}) // parks at t=at with the crash due
				}
				r.Advance(0) // the crash fires here, at t=at
				return nil
			}
			_, _, _, recvErr[id] = r.RecvTimeout(1, 9, at)
			seen[id] = r.Failed(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if seen[0] || !seen[2] {
			t.Errorf("aside=%v: at t=%g rank 0 sees the crash %v, rank 2 %v; want false and true", aside, at, seen[0], seen[2])
		}
		if !errors.Is(recvErr[0], ErrTimeout) || !errors.Is(recvErr[2], ErrRankFailed) {
			t.Errorf("aside=%v: receives with deadline t=%g: rank 0 %v, rank 2 %v; want ErrTimeout and ErrRankFailed", aside, at, recvErr[0], recvErr[2])
		}
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
		Faults: []Fault{{Rank: 1, At: 0.5}},
	}
	fs := vfs.MustNew(vfs.Profile{Name: "t", Latency: 1, Bandwidth: 1e9, Channels: 1})
	clocks, _, err := RunConfig(3, cfg, func(r *Rank) error {
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
		Faults: []Fault{{Rank: 2, At: 0.5}},
	}
	world := func(recv func(r *Rank) ([]byte, error)) float64 {
		var got float64
		_, _, err := RunConfig(3, cfg, func(r *Rank) error {
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

// TestDetectIntervalIsTheWorldsCall: whether a receive can see a crash is
// decided inside the package. In a fault-free world DetectInterval is +Inf,
// so a detection loop written once is one blocking receive — no timeout
// however late the message, none booked — and Failed is false for everyone.
// The same program under a schedule whose one crash never fires (its victim
// makes no MPI call) polls and ends at the bit-equal clock.
func TestDetectIntervalIsTheWorldsCall(t *testing.T) {
	late := 1000 * testCost().FaultDetectInterval()
	world := func(faults []Fault) (float64, int, int64) {
		reg := metrics.NewRegistry()
		var end float64
		polls := 0
		cfg := Config{Cost: testCost(), Faults: faults, Metrics: reg}
		_, _, err := RunConfig(3, cfg, func(r *Rank) error {
			if r.ID() == 1 {
				r.Advance(late)
				r.Send(0, 9, []byte("late"))
				return nil
			}
			if r.ID() == 2 {
				return nil
			}
			for {
				data, _, _, err := r.RecvTimeout(1, 9, r.DetectInterval())
				if err == nil {
					if string(data) != "late" {
						return fmt.Errorf("received %q", data)
					}
					break
				}
				if !errors.Is(err, ErrTimeout) {
					return err
				}
				polls++
			}
			for id := 0; id < r.Size(); id++ {
				if r.Failed(id) {
					return fmt.Errorf("Failed(%d) with no crash scheduled", id)
				}
			}
			end = r.Clock().Now()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return end, polls, reg.Snapshot().CounterTotal("mpi.recv_timeouts")
	}
	free, freePolls, freeTimeouts := world(nil)
	if freePolls != 0 || freeTimeouts != 0 {
		t.Fatalf("fault-free world: %d ErrTimeouts, mpi.recv_timeouts = %d; want 0 and 0", freePolls, freeTimeouts)
	}
	if free < late {
		t.Fatalf("fault-free receive completed at %g, before the message was sent at %g", free, late)
	}
	unfired, polls, timeouts := world([]Fault{{Rank: 2, At: 2 * late}})
	if polls < 1000 || timeouts != int64(polls) {
		t.Fatalf("unfired-crash world: %d ErrTimeouts, mpi.recv_timeouts = %d; want ≥ 1000 and equal", polls, timeouts)
	}
	if unfired != free {
		t.Fatalf("unfired-crash world ends at %x, fault-free at %x", unfired, free)
	}
}

// TestRecvFromCrashedAborts: a plain (deadline-free) Recv on a dead peer is
// an unrecoverable stall; the abort must say WHO crashed and when, not
// "deadlock".
func TestRecvFromCrashedAborts(t *testing.T) {
	cfg := Config{
		Cost:   testCost(),
		Faults: []Fault{{Rank: 1, At: 0.5}},
	}
	_, _, err := RunConfig(2, cfg, func(r *Rank) error {
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
	if !strings.Contains(err.Error(), "unrecovered rank failure (rank 1 crashed at t=1.000000): ") {
		t.Fatalf("abort error %q should name the crashed rank and its crash time", err)
	}
	if strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("crash-induced stall misreported as deadlock: %q", err)
	}
}

// TestFaultMarksOnTrace: every fired crash marks the victim's timeline on
// Config.Trace exactly once, named "crash", at a time at or after the
// scheduled At.
func TestFaultMarksOnTrace(t *testing.T) {
	col := trace.NewCollector()
	cfg := Config{
		Cost: testCost(),
		Faults: []Fault{
			{Rank: 1, At: 0.5},
			{Rank: 2, At: 0.25},
		},
		Trace: col,
	}
	_, _, err := RunConfig(3, cfg, func(r *Rank) error {
		r.Advance(1)
		r.Compute(1000)
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
	for rank := 1; rank <= 2; rank++ {
		const want = "crash"
		evs := col.Events(rank)
		if len(evs) != 1 || evs[0].Name != want || evs[0].At != 1 ||
			evs[0].Attrs["kind"] != want || evs[0].Attrs["rank"] != fmt.Sprint(rank) {
			t.Fatalf("rank %d events %+v, want one %s mark at t=1", rank, evs, want)
		}
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
		{"bad rank", []Fault{{Rank: 7, At: 1}}, "invalid rank 7"},
		{"negative time", []Fault{{Rank: 1, At: -1}}, "invalid time -1"},
		{"double crash", []Fault{{Rank: 1, At: 1}, {Rank: 1, At: 2}}, "more than one scheduled crash"},
		{"NaN time", []Fault{{Rank: 1, At: math.NaN()}}, "invalid time NaN"},
		// Used to mean "never" while arming FaultsScheduled for the whole run.
		{"infinite time", []Fault{{Rank: 1, At: math.Inf(1)}}, "invalid time +Inf"},
	} {
		cfg := Config{Cost: testCost(), Faults: tc.faults}
		if _, _, err := RunConfig(2, cfg, body); err == nil || !strings.Contains(err.Error(), tc.want) {
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
			Faults: []Fault{{Rank: 2, At: 0.12}},
		}
		clocks, _, err := RunConfig(3, cfg, func(r *Rank) error {
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
