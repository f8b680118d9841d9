package core_test

import (
	"bytes"
	"testing"

	"parblast/internal/core"
	"parblast/internal/mpi"
	"parblast/internal/mpiio"
	"parblast/internal/vfs"
)

// TestIOStrategiesPreserveOutput sweeps every read strategy (and the
// tuner, which mixes them mid-run while exploring) through the full
// pipeline with collective reads on: the sequential oracle stays the
// byte-identity gate no matter how the bytes reach the workers.
func TestIOStrategiesPreserveOutput(t *testing.T) {
	cases := []struct {
		name string
		opts core.Options
	}{
		{"two-phase", core.Options{CollectiveRead: true,
			IOHints: mpiio.Hints{ReadStrategy: mpiio.StrategyTwoPhase}}},
		{"list-io", core.Options{CollectiveRead: true,
			IOHints: mpiio.Hints{ReadStrategy: mpiio.StrategyListIO}}},
		{"independent", core.Options{CollectiveRead: true,
			IOHints: mpiio.Hints{ReadStrategy: mpiio.StrategyIndependent}}},
		{"explicit gap", core.Options{CollectiveRead: true,
			IOHints: mpiio.Hints{SieveGap: 4096, CbNodes: 2}}},
		{"tuner", core.Options{CollectiveRead: true, IOTuner: mpiio.NewTuner()}},
	}
	fx := makeFixture(t, 400)
	seqOut, _, base, _, _ := runAllThree(t, fx, 4, 0, vfs.XFSLike(), localDisk(),
		core.Options{CollectiveRead: true})
	if !bytes.Equal(seqOut, base) {
		t.Fatal("baseline collective read does not match the oracle")
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, pioOut, _, _ := runAllThree(t, fx, 4, 0, vfs.XFSLike(), localDisk(), tc.opts)
			if !bytes.Equal(seqOut, pioOut) {
				t.Fatalf("%s output diverges from the sequential oracle", tc.name)
			}
		})
	}
}

// TestIOHintsValidatedUpFront rejects malformed hints before any rank
// starts, instead of failing mid-collective.
func TestIOHintsValidatedUpFront(t *testing.T) {
	fx := makeFixture(t, 200)
	nodes := fx.newCluster(t, 2, vfs.XFSLike(), nil, 0)
	job := *fx.job
	_, _, err := core.Run(nodes, 2, mpi.Config{Cost: testCost()}, &job, core.Options{
		IOHints: mpiio.Hints{SieveGap: -1},
	}, nil)
	if err == nil {
		t.Fatal("core.Run accepted a negative sieve gap")
	}
}

// TestTunerLearnsAcrossPipelineRuns runs the pipeline twice with one
// shared tuner: the second run must exploit what the first (finalized)
// run learned, and stay byte-identical to the oracle while doing it.
func TestTunerLearnsAcrossPipelineRuns(t *testing.T) {
	fx := makeFixture(t, 300)
	tuner := mpiio.NewTuner()
	opts := core.Options{CollectiveRead: true, IOTuner: tuner}
	seqOut, _, first, _, _ := runAllThree(t, fx, 4, 0, vfs.NFSLike(), localDisk(), opts)
	if !bytes.Equal(seqOut, first) {
		t.Fatal("exploring run diverges from the oracle")
	}
	art := tuner.Finalize()
	if len(art.Entries) == 0 {
		t.Fatal("pipeline exploration learned nothing")
	}
	data, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := mpiio.LoadTuner(data)
	if err != nil {
		t.Fatal(err)
	}
	_, _, second, _, _ := runAllThree(t, fx, 4, 0, vfs.NFSLike(), localDisk(),
		core.Options{CollectiveRead: true, IOTuner: loaded})
	if !bytes.Equal(seqOut, second) {
		t.Fatal("exploiting run diverges from the oracle")
	}
}
