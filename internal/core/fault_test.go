package core_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"parblast/internal/core"
	"parblast/internal/engine"
	"parblast/internal/mpi"
	"parblast/internal/mpiblast"
	"parblast/internal/seq"
	"parblast/internal/trace"
	"parblast/internal/vfs"
	"parblast/internal/workload"
)

// sweepProtocols are the recovery protocols the crash sweep covers:
// mpiBLAST's flat and tree masters re-copy a dead worker's fragments,
// pioBLAST's static and dynamic ones re-issue its offset ranges.
var sweepProtocols = []struct {
	name string
	mpi  *mpiblast.Options
	pio  *core.Options
}{
	{"mpi flat", &mpiblast.Options{}, nil},
	{"mpi tree", &mpiblast.Options{TreeMerge: true}, nil},
	{"pio static", nil, &core.Options{FaultTolerant: true}},
	{"pio dynamic", nil, &core.Options{FaultTolerant: true, DynamicAssignment: true}},
}

const (
	sweepProcs = 5
	sweepFrags = 8
)

// sweepPoint is what one run of the crash sweep left: the wall, the output
// digest, or the error.
type sweepPoint struct {
	wall float64
	out  [sha256.Size]byte
	err  error
}

func (p sweepPoint) String() string {
	if p.err != nil {
		return "error " + p.err.Error()
	}
	return fmt.Sprintf("wall %016x output %x", math.Float64bits(p.wall), p.out)
}

// sweepRun runs protocol p on a fresh cluster of sweepProcs ranks and
// sweepFrags parts under faults, behind a host-time watchdog, so a point
// that hangs fails the test by name. The runtime carries no such timer.
func sweepRun(t *testing.T, fx *fixture, p int, faults []mpi.Fault) sweepPoint {
	t.Helper()
	proto := sweepProtocols[p]
	nodes := fx.newCluster(t, sweepProcs, vfs.XFSLike(), localDisk(), 0)
	job := *fx.job
	job.Fragments = sweepFrags
	cfg := mpi.Config{Cost: testCost(), Faults: faults}
	if proto.mpi != nil {
		if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", sweepFrags); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan sweepPoint, 1)
	go func() {
		var res engine.RunResult
		var err error
		if proto.mpi != nil {
			res, _, err = mpiblast.Run(nodes, sweepProcs, cfg, &job, *proto.mpi, nil)
		} else {
			res, _, err = core.Run(nodes, sweepProcs, cfg, &job, *proto.pio, nil)
		}
		if err == nil {
			var out []byte
			if out, err = nodes[0].Shared.ReadFile(job.OutputPath); err == nil {
				done <- sweepPoint{wall: res.Wall, out: sha256.Sum256(out)}
				return
			}
		}
		done <- sweepPoint{err: err}
	}()
	select {
	case pt := <-done:
		return pt
	case <-time.After(20 * time.Second):
		t.Fatalf("%s with faults %v still running after 20 s", proto.name, faults)
		return sweepPoint{}
	}
}

// TestCrashSweepEveryProtocol crashes the first or the last worker of every
// recovery protocol at times from 0 to past the fault-free wall. Each run
// either recovers — output identical to the sequential oracle — or fails
// with an error that names the crash; a crash-free deadlock or a panic
// fails the test. Every point, run twice, repeats its wall bits, output and
// error, and each protocol recovers at least once, at a wall above the
// fault-free one.
func TestCrashSweepEveryProtocol(t *testing.T) {
	const times = 8
	fx := makeFixture(t, 600)
	want := sha256.Sum256(oracleOutput(t, fx))

	for p, proto := range sweepProtocols {
		free := sweepRun(t, fx, p, nil)
		if free.err != nil || free.out != want {
			t.Fatalf("%s fault-free: %v, want the oracle's output", proto.name, free)
		}
		recovered := 0
		for _, victim := range []int{1, sweepProcs - 1} {
			for i := range times {
				at := float64(i) * 1.2 * free.wall / (times - 1)
				faults := []mpi.Fault{{Rank: victim, At: at}}
				pt := sweepRun(t, fx, p, faults)
				t.Logf("%-11s rank %d at %.6f: %v", proto.name, victim, at, pt)
				switch {
				case pt.err == nil && pt.out != want:
					t.Errorf("%s rank %d at %g: recovered output differs from the oracle", proto.name, victim, at)
				case pt.err == nil:
					if pt.wall > free.wall {
						recovered++
					}
				case strings.Contains(pt.err.Error(), "panicked") || strings.Contains(pt.err.Error(), "deadlock") ||
					!errors.Is(pt.err, mpi.ErrRankFailed) && !strings.Contains(pt.err.Error(), "crashed"):
					t.Errorf("%s rank %d at %g: error names no crash: %v", proto.name, victim, at, pt.err)
				}
				if again := sweepRun(t, fx, p, faults); again.String() != pt.String() {
					t.Errorf("%s rank %d at %g: rerun gave %v, first run %v", proto.name, victim, at, again, pt)
				}
			}
		}
		if recovered == 0 {
			t.Errorf("%s: no crash point recovered at a wall above the fault-free %g", proto.name, free.wall)
		}
	}
}

// TestCrashAfterPartRequest: a dynamic-assignment worker (prefetch 1)
// crashes just after a part request, in two regimes.
//
//   - fast: nodes so fast (speed 0.01, RAM disk) that the request is still
//     unread when the crash fires, 1 ns after each request. The master answers
//     a dead requester like a live one: what it gives the dead worker sits in
//     the ledger and is re-issued when the rendezvous reaps it, and a crash
//     after the last request — answered "done" — costs the run no detection
//     interval.
//   - slow: a part outlasts the detection interval, so the master polls on a
//     fixed grid. A worker whose request leaves within NetLatency before a
//     poll deadline crashes before that deadline: the poll reaps it while the
//     request is in flight, and the request must then go unanswered — a part
//     given to the reaped worker would never be re-issued. The first query is
//     12 residues and the rest ~900, so the crash check after the first
//     query's charge lands inside that window; a bystander 40x slower than the
//     victim keeps the victim's requests the only arrivals.
//
// Every point recovers with the oracle's bytes.
func TestCrashAfterPartRequest(t *testing.T) {
	const parts = 40
	detect, latency := testCost().FaultDetectInterval(), testCost().NetLatency
	fast := makeFixture(t, 600)
	slow := makeFixture(t, 600)
	db := fixtureDB(t)
	long, err := workload.SampleQueries(db, workload.QueryConfig{TargetBytes: 90000, MeanLen: 100, MutationRate: 0.05, Seed: 202})
	if err != nil {
		t.Fatal(err)
	}
	short := &seq.Sequence{ID: "short", Residues: db[0].Residues[:12], Alpha: db[0].Alpha}
	slow.queries = append([]*seq.Sequence{short}, long...)
	slow.job.Queries = slow.queries
	for _, tc := range []struct {
		name   string
		fx     *fixture
		speeds []float64
		// reaped: only points whose crash a poll sees before the request
		// arrives count, and at least one must.
		reaped bool
	}{
		{"fast", fast, []float64{0.01, 0.01, 0.01, 0.01, 0.01}, false},
		{"slow", slow, []float64{1, 0.018, 40 * 0.018}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nprocs := len(tc.speeds)
			want := oracleOutput(t, tc.fx)
			opts := core.Options{FaultTolerant: true, DynamicAssignment: true, PrefetchDepth: 1}
			run := func(cfg mpi.Config) (float64, []byte) {
				nodes := tc.fx.newCluster(t, nprocs, vfs.RAMDisk(), nil, 0)
				job := *tc.fx.job
				job.Fragments = parts
				cfg.Cost, cfg.Speeds = testCost(), tc.speeds
				res, _, err := core.Run(nodes, nprocs, cfg, &job, opts, nil)
				if err != nil {
					t.Fatalf("faults %v: %v", cfg.Faults, err)
				}
				out, err := nodes[0].Shared.ReadFile(job.OutputPath)
				if err != nil {
					t.Fatal(err)
				}
				return res.Wall, out
			}
			col := trace.NewCollector()
			free, _ := run(mpi.Config{Trace: col})
			var requests []trace.Flow
			var answers []float64         // the master's answer times: where each poll grid starts
			last := make(map[int]float64) // victim → the time of its last request
			for _, f := range col.Flows() {
				switch f.Op {
				case core.PartRequestFlowOp:
					requests = append(requests, f)
					last[f.Src] = max(last[f.Src], f.SendAt)
				case core.PartAssignFlowOp:
					answers = append(answers, f.SendAt)
				}
			}
			if len(requests) < 4*(nprocs-1) {
				t.Fatalf("%d part requests traced, want several per worker", len(requests))
			}
			limit := free + float64(detect/2)
			reached := 0
			for _, f := range requests {
				deadline := math.Inf(1)
				if tc.reaped {
					// Unanswered since its last answer, the master polls
					// every detect interval from it; the first deadline after
					// the request must come before the request arrives.
					from := -1.0
					for _, a := range answers {
						if a < f.RecvAt {
							from = max(from, a)
						}
					}
					if from < 0 || from > f.SendAt {
						continue
					}
					for deadline = from; deadline <= f.SendAt; deadline += detect {
					}
					if deadline >= f.RecvAt {
						continue
					}
				}
				crashed := trace.NewCollector()
				faults := []mpi.Fault{{Rank: f.Src, At: f.SendAt + 1e-9}}
				wall, out := run(mpi.Config{Faults: faults, Trace: crashed})
				if !bytes.Equal(out, want) {
					t.Errorf("rank %d crashing after its request at %g: output differs from the oracle", f.Src, f.SendAt)
				}
				for _, ev := range crashed.Events(f.Src) {
					if ev.Name == "crash" && ev.At < deadline {
						reached++
					}
				}
				if !tc.reaped && f.SendAt == last[f.Src] && wall > limit {
					t.Errorf("rank %d crashing after its last request: wall %g, fault-free %g: the master waited to detect it", f.Src, wall, free)
				}
			}
			if tc.reaped && reached == 0 {
				t.Fatalf("no crash fell between a request and the poll deadline within %g s after it: re-tune the speeds", latency)
			}
		})
	}
}

// TestCrashRankZeroRejected: the master cannot be a crash victim — both
// engines must refuse the schedule up front instead of hanging.
func TestCrashRankZeroRejected(t *testing.T) {
	fx := makeFixture(t, 600)
	faults := []mpi.Fault{{Rank: 0, At: 0.1}}
	cfg := mpi.Config{Cost: testCost(), Faults: faults}

	nodes := fx.newCluster(t, 3, vfs.XFSLike(), nil, 0)
	job := *fx.job
	if _, _, err := core.Run(nodes, 3, cfg, &job, core.Options{}, nil); err == nil ||
		!strings.Contains(err.Error(), "rank 0") {
		t.Errorf("core accepted a master crash: %v", err)
	}

	nodes2 := fx.newCluster(t, 3, vfs.XFSLike(), localDisk(), 0)
	if _, err := mpiblast.PrepareFragments(nodes2[0].Shared, "nr", 2); err != nil {
		t.Fatal(err)
	}
	job2 := *fx.job
	if _, _, err := mpiblast.Run(nodes2, 3, cfg, &job2, mpiblast.Options{}, nil); err == nil ||
		!strings.Contains(err.Error(), "rank 0") {
		t.Errorf("mpiblast accepted a master crash: %v", err)
	}
}

// TestCrashDuringOutputUnrecoverable: recovery covers the search phase
// only; a worker dying in the output window must surface a clean error
// that says so, not a hang or corrupt output — by one rule in both merge
// modes: the message names the output phase and wraps mpi.ErrRankFailed.
func TestCrashDuringOutputUnrecoverable(t *testing.T) {
	const nprocs = 4
	fx := makeFixture(t, 2000)
	for _, tree := range []bool{false, true} {
		opts := mpiblast.Options{TreeMerge: tree}
		run := func(faults []mpi.Fault) (engine.RunResult, error) {
			nodes := fx.newCluster(t, nprocs, vfs.XFSLike(), localDisk(), 0)
			if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", nprocs-1); err != nil {
				t.Fatal(err)
			}
			job := *fx.job
			res, _, err := mpiblast.Run(nodes, nprocs, mpi.Config{Cost: testCost(), Faults: faults}, &job, opts, nil)
			return res, err
		}
		free, err := run(nil)
		if err != nil {
			t.Fatal(err)
		}
		// Fire just inside the output window: the victim has reported results
		// and is now serving the master's fetch protocol.
		at := free.Wall - float64(0.5*free.Phase.Output)
		_, err = run([]mpi.Fault{{Rank: nprocs - 1, At: at}})
		if err == nil {
			t.Skip("crash window missed the output phase on this cost model")
		}
		if !strings.Contains(err.Error(), "output phase") || !errors.Is(err, mpi.ErrRankFailed) {
			t.Errorf("tree=%v: output-phase crash produced %v, want an error naming the output phase and wrapping mpi.ErrRankFailed", tree, err)
		}
	}
}
