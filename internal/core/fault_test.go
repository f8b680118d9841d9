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
	"parblast/internal/vfs"
)

// crashSpec runs one engine with the given fault schedule on a fresh
// cluster and returns the run result and output bytes.
func crashSpec(t *testing.T, fx *fixture, eng string, nprocs int, faults []mpi.Fault) (engine.RunResult, []byte) {
	t.Helper()
	nodes := fx.newCluster(t, nprocs, vfs.XFSLike(), localDisk(), 0)
	job := *fx.job
	cfg := mpi.Config{Cost: testCost(), Faults: faults}
	var res engine.RunResult
	var err error
	switch eng {
	case "mpi":
		if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", nprocs-1); err != nil {
			t.Fatal(err)
		}
		res, _, err = mpiblast.Run(nodes, nprocs, cfg, &job, mpiblast.Options{}, nil)
	case "pio":
		res, _, err = core.Run(nodes, nprocs, cfg, &job, core.Options{FaultTolerant: true}, nil)
	}
	if err != nil {
		t.Fatalf("%s crashed run failed: %v", eng, err)
	}
	out, err := nodes[0].Shared.ReadFile(fx.job.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	return res, out
}

// TestCrashRecoveryByteIdentical: a single worker crash mid-search must
// leave both engines' output byte-identical to the sequential oracle, and
// the recovery must be deterministic (two crashed runs agree exactly).
func TestCrashRecoveryByteIdentical(t *testing.T) {
	const nprocs = 4
	fx := makeFixture(t, 2000)

	seqNodes := fx.newCluster(t, 1, vfs.RAMDisk(), nil, 0)
	seqJob := *fx.job
	if err := engine.RunSequential(seqNodes[0].Shared, &seqJob); err != nil {
		t.Fatal(err)
	}
	oracle, err := seqNodes[0].Shared.ReadFile(fx.job.OutputPath)
	if err != nil {
		t.Fatal(err)
	}

	for _, eng := range []string{"mpi", "pio"} {
		free, freeOut := crashSpec(t, fx, eng, nprocs, nil)
		if !bytes.Equal(freeOut, oracle) {
			t.Fatalf("%s fault-free output differs from oracle at byte %d",
				eng, firstDiff(freeOut, oracle))
		}
		// Crash the last worker mid-search (before the output phase, which
		// recovery deliberately does not cover).
		at := 0.5 * (free.Wall - free.Phase.Output)
		faults := []mpi.Fault{{Rank: nprocs - 1, At: at}}
		crashed, out1 := crashSpec(t, fx, eng, nprocs, faults)
		if !bytes.Equal(out1, oracle) {
			t.Errorf("%s output after crash differs from oracle at byte %d",
				eng, firstDiff(out1, oracle))
		}
		if crashed.Wall <= free.Wall {
			t.Errorf("%s crashed wall %.3f not above fault-free %.3f (no recovery cost?)",
				eng, crashed.Wall, free.Wall)
		}
		crashed2, out2 := crashSpec(t, fx, eng, nprocs, faults)
		if !bytes.Equal(out1, out2) || crashed2.Wall != crashed.Wall {
			t.Errorf("%s recovery is nondeterministic (wall %.6f vs %.6f)",
				eng, crashed.Wall, crashed2.Wall)
		}
	}
}

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

// TestCrashRecoveryWithReadPathModes: a mid-search worker crash must still
// yield oracle-identical output when the input stage uses collective reads
// or the prefetch pipeline (recovery re-reads reclaimed partitions with
// independent reads, since the crashed peers a collective needs are gone).
func TestCrashRecoveryWithReadPathModes(t *testing.T) {
	const nprocs = 4
	fx := makeFixture(t, 2000)

	seqNodes := fx.newCluster(t, 1, vfs.RAMDisk(), nil, 0)
	seqJob := *fx.job
	if err := engine.RunSequential(seqNodes[0].Shared, &seqJob); err != nil {
		t.Fatal(err)
	}
	oracle, err := seqNodes[0].Shared.ReadFile(fx.job.OutputPath)
	if err != nil {
		t.Fatal(err)
	}

	runPio := func(opts core.Options, faults []mpi.Fault) (engine.RunResult, []byte) {
		t.Helper()
		nodes := fx.newCluster(t, nprocs, vfs.XFSLike(), localDisk(), 0)
		job := *fx.job
		job.Fragments = 9
		cfg := mpi.Config{Cost: testCost(), Faults: faults}
		res, _, err := core.Run(nodes, nprocs, cfg, &job, opts, nil)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		out, err := nodes[0].Shared.ReadFile(fx.job.OutputPath)
		if err != nil {
			t.Fatal(err)
		}
		return res, out
	}

	for _, opts := range []core.Options{
		{FaultTolerant: true, CollectiveRead: true},
		{FaultTolerant: true, PrefetchDepth: 2},
		{FaultTolerant: true, DynamicAssignment: true, PrefetchDepth: 1},
	} {
		free, freeOut := runPio(opts, nil)
		if !bytes.Equal(freeOut, oracle) {
			t.Fatalf("opts %+v fault-free output differs at byte %d",
				opts, firstDiff(freeOut, oracle))
		}
		at := 0.5 * (free.Wall - free.Phase.Output)
		faults := []mpi.Fault{{Rank: nprocs - 1, At: at}}
		_, out1 := runPio(opts, faults)
		if !bytes.Equal(out1, oracle) {
			t.Errorf("opts %+v output after crash differs at byte %d",
				opts, firstDiff(out1, oracle))
		}
		_, out2 := runPio(opts, faults)
		if !bytes.Equal(out1, out2) {
			t.Errorf("opts %+v recovery nondeterministic", opts)
		}
	}
}
