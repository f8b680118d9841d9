package core_test

import (
	"bytes"
	"testing"

	"parblast/internal/core"
	"parblast/internal/mpi"
	"parblast/internal/mpiio"
	"parblast/internal/vfs"
)

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
	seqOut := oracleOutput(t, fx)
	row := oracleRow{pio: &opts, procs: 4, shared: vfs.NFSLike(), local: localDisk()}
	if _, first := row.run(t, fx, nil); !bytes.Equal(seqOut, first) {
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
	row.pio = &core.Options{CollectiveRead: true, IOTuner: loaded}
	if _, second := row.run(t, fx, nil); !bytes.Equal(seqOut, second) {
		t.Fatal("exploiting run diverges from the oracle")
	}
}
