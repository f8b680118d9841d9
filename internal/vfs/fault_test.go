package vfs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestCreateKeepsHandles: re-creating an existing path must truncate the
// SAME File object, not replace it — handles other ranks already hold must
// keep addressing the live file (regression: old handles silently wrote to
// an orphaned object while readers saw the fresh one).
func TestCreateKeepsHandles(t *testing.T) {
	fs := MustNew(RAMDisk())
	old := fs.Create("shared.out")
	old.WriteAt([]byte("stale content"), 0)

	fresh := fs.Create("shared.out") // truncate, not replace
	if fresh != old {
		t.Fatal("Create returned a different File object for an existing path")
	}
	if old.Size() != 0 {
		t.Fatalf("old handle sees size %d after re-create, want 0", old.Size())
	}

	// A write through the OLD handle must be visible through the namespace.
	old.WriteAt([]byte("new content"), 0)
	got, err := fs.ReadFile("shared.out")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("new content")) {
		t.Fatalf("ReadFile = %q, want %q (old handle detached from namespace)", got, "new content")
	}
}

// TestInjectFaultsAccounting: a faulted access pays each failed attempt's
// latency plus exponentially doubling backoff, and FaultStats books every
// retry and backoff second.
func TestInjectFaultsAccounting(t *testing.T) {
	p := Profile{Name: "t", Latency: 0.005, Bandwidth: 1e6, Channels: 1}
	fs := MustNew(p)
	if err := fs.InjectFaults(FaultPlan{FirstOp: 1, Failures: 3, Backoff: 0.01}); err != nil {
		t.Fatal(err)
	}
	end := fs.Access(0, 1000) // 1ms transfer
	// 3 failed attempts: (latency+0.01) + (latency+0.02) + (latency+0.04),
	// then the successful attempt: latency + transfer.
	want := 3*p.Latency + (0.01 + 0.02 + 0.04) + p.Latency + 0.001
	if math.Abs(end-want) > 1e-12 {
		t.Fatalf("faulted access end = %g, want %g", end, want)
	}
	faulted, retries, backoff := fs.FaultStats()
	if faulted != 1 || retries != 3 || math.Abs(backoff-0.07) > 1e-12 {
		t.Fatalf("FaultStats = (%d, %d, %g), want (1, 3, 0.07)", faulted, retries, backoff)
	}

	// The next access (ordinal 2, not scheduled) pays no fault cost.
	end2 := fs.Access(end, 1000)
	if want2 := end + p.Latency + 0.001; math.Abs(end2-want2) > 1e-12 {
		t.Fatalf("clean access end = %g, want %g", end2, want2)
	}
	if faulted, retries, _ := fs.FaultStats(); faulted != 1 || retries != 3 {
		t.Fatalf("clean access changed FaultStats to (%d, %d)", faulted, retries)
	}
}

// TestFaultPlanEveryAndCount: Every selects the cadence, Count caps how
// many accesses fault in total.
func TestFaultPlanEveryAndCount(t *testing.T) {
	fs := MustNew(RAMDisk())
	if err := fs.InjectFaults(FaultPlan{FirstOp: 1, Every: 2, Count: 2, Failures: 1, Backoff: 0.001}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		fs.Access(0, 0)
	}
	// Ops 1 and 3 fault; op 5 would match the cadence but Count=2 stops it.
	faulted, retries, _ := fs.FaultStats()
	if faulted != 2 || retries != 2 {
		t.Fatalf("FaultStats = (%d, %d), want (2, 2)", faulted, retries)
	}
}

// TestInjectFaultsValidate rejects malformed plans, naming the field where
// a plan's backoff is not finite or its doubling overflows (each of those
// used to be accepted and made Access return NaN or +Inf), accepts the
// largest plans that stay finite, and lets a zero-Failures plan disable
// injection.
func TestInjectFaultsValidate(t *testing.T) {
	fs := MustNew(RAMDisk())
	for _, tc := range []struct {
		plan FaultPlan
		want string
	}{
		{FaultPlan{FirstOp: 0, Failures: 1}, "invalid fault plan"},
		{FaultPlan{FirstOp: 1, Every: -1, Failures: 1}, "invalid fault plan"},
		{FaultPlan{FirstOp: 1, Count: -1, Failures: 1}, "invalid fault plan"},
		{FaultPlan{FirstOp: 1, Failures: -1}, "invalid fault plan"},
		{FaultPlan{FirstOp: 1, Failures: 1, Backoff: -0.1}, "invalid fault plan"},
		{FaultPlan{FirstOp: 1, Failures: 1, Backoff: math.NaN()}, "Backoff must be finite"},
		{FaultPlan{FirstOp: 1, Failures: 1, Backoff: math.Inf(1)}, "Backoff must be finite"},
		{FaultPlan{FirstOp: 1, Failures: 2000, Backoff: 1e-3}, "Failures=2000"},
		{FaultPlan{FirstOp: 1, Failures: 2, Backoff: 0.6 * math.MaxFloat64}, "Failures=2"},
	} {
		if err := fs.InjectFaults(tc.plan); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("plan %+v: error %v, want one saying %q", tc.plan, err, tc.want)
		}
	}
	for _, p := range []FaultPlan{
		{FirstOp: 1, Failures: 1000, Backoff: 1e-3},
		{FirstOp: 1, Failures: 5000},
		{FirstOp: 1, Failures: 1, Backoff: 0.5 * math.MaxFloat64},
	} {
		fs := MustNew(RAMDisk())
		if err := fs.InjectFaults(p); err != nil {
			t.Fatalf("plan %+v: %v", p, err)
		}
		if end := fs.Access(0, 100); math.IsNaN(end) || math.IsInf(end, 0) {
			t.Errorf("plan %+v: access ends at %g", p, end)
		}
	}
	if err := fs.InjectFaults(FaultPlan{FirstOp: 1, Failures: 2, Backoff: 0.01}); err != nil {
		t.Fatal(err)
	}
	if err := fs.InjectFaults(FaultPlan{FirstOp: 1}); err != nil { // disable
		t.Fatal(err)
	}
	fs.Access(0, 100)
	if faulted, _, _ := fs.FaultStats(); faulted != 0 {
		t.Fatalf("disabled plan still faulted %d ops", faulted)
	}
}
