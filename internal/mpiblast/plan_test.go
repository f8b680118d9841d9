package mpiblast

import (
	"slices"
	"testing"

	"parblast/internal/blast"
	"parblast/internal/engine"
	"parblast/internal/formatdb"
	"parblast/internal/mpi"
	"parblast/internal/seq"
	"parblast/internal/simtime"
	"parblast/internal/vfs"
	"parblast/internal/workload"
)

// TestPlanOpensPreparedFragments: the fragment bases the job broadcast names
// are exactly the ones PrepareFragments returned, so the master opens what
// mpiformatdb cut, fragment for fragment.
func TestPlanOpensPreparedFragments(t *testing.T) {
	const nprocs, nFrags = 3, 5
	nodes, err := vfs.Cluster(nprocs, vfs.XFSLike(), nil)
	if err != nil {
		t.Fatal(err)
	}
	seqs, err := workload.SynthesizeDB(workload.DBConfig{Kind: seq.Protein, NumSeqs: 20, MeanLen: 80, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := formatdb.Format(nodes[0].Shared, "nr", seqs, formatdb.Config{Kind: seq.Protein}); err != nil {
		t.Fatal(err)
	}
	bases, err := PrepareFragments(nodes[0].Shared, "nr", nFrags)
	if err != nil {
		t.Fatal(err)
	}
	job := &engine.Job{
		DBBase: "nr", Queries: seqs[:1], Options: blast.DefaultProteinOptions(),
		OutputPath: "out", Fragments: nFrags,
	}
	mp, err := plan(nodes, nprocs, mpi.Config{Cost: simtime.DefaultCostModel()}, job, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(mp.meta.FragBases, bases) {
		t.Fatalf("plan opens %q, PrepareFragments cut %q", mp.meta.FragBases, bases)
	}
	for i, base := range bases {
		if base != formatdb.FragmentBase("nr", i) {
			t.Errorf("fragment %d is %q, want FragmentBase's %q", i, base, formatdb.FragmentBase("nr", i))
		}
	}
}
