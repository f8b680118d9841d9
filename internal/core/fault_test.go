package core_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

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
		faults := []mpi.Fault{{Rank: nprocs - 1, At: at, Kind: mpi.FaultCrash}}
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

// TestCrashRankZeroRejected: the master cannot be a crash victim — both
// engines must refuse the schedule up front instead of hanging.
func TestCrashRankZeroRejected(t *testing.T) {
	fx := makeFixture(t, 600)
	faults := []mpi.Fault{{Rank: 0, At: 0.1, Kind: mpi.FaultCrash}}
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
		at := free.Wall - 0.5*free.Phase.Output
		_, err = run([]mpi.Fault{{Rank: nprocs - 1, At: at, Kind: mpi.FaultCrash}})
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
		faults := []mpi.Fault{{Rank: nprocs - 1, At: at, Kind: mpi.FaultCrash}}
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
