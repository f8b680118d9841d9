package report_test

import (
	"bytes"
	"testing"

	"parblast"
	"parblast/internal/report"
)

// runOnce executes a small pioBLAST run with metrics and tracing enabled
// and returns the built artifact bytes, exact critical path attached.
func runOnce(t *testing.T) []byte {
	t.Helper()
	cluster, err := parblast.NewCluster(4, parblast.PlatformAltix)
	if err != nil {
		t.Fatal(err)
	}
	reg, col := cluster.Metrics(), cluster.Trace()
	seqs, err := parblast.SynthesizeDB(parblast.DBConfig{
		Kind: parblast.Protein, NumSeqs: 60, MeanLen: 120, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := cluster.FormatDB("nr", seqs, "report test db")
	if err != nil {
		t.Fatal(err)
	}
	queries, err := parblast.SampleQueries(seqs, parblast.QueryConfig{
		TargetBytes: 1024, MeanLen: 80, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Run(parblast.EnginePioBLAST, parblast.Search{
		DB: db, Queries: queries, Output: "results.out",
	})
	if err != nil {
		t.Fatal(err)
	}
	r := report.Build(report.RunInfo{
		Engine:   "pioBLAST",
		Platform: "altix-xfs",
		Procs:    cluster.Procs(),
		Queries:  len(queries),
		DBSeqs:   db.NumSeqs,
	}, res, reg)
	r.ExactPath = report.ExactCriticalPath(col)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFiveLayerCoverage: a real pio run must surface metrics from every
// instrumented layer — the tentpole's acceptance criterion.
func TestFiveLayerCoverage(t *testing.T) {
	data := runOnce(t)
	r, err := report.ParseRun(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.Version != report.Version || r.Kind != report.KindRun {
		t.Fatalf("version/kind = %d/%q", r.Version, r.Kind)
	}
	for _, layer := range []string{"mpi.", "vfs.", "mpiio.", "blast.", "engine."} {
		if !r.Metrics.HasPrefix(layer) {
			t.Errorf("no metrics from layer %q in the report", layer)
		}
	}
	// The simulator's own cost shows too: how many word indexes the host
	// built for the job — at most one per query — against how many of the
	// (fragment, query) searches, one fragment per worker, reused one.
	builds, reuses := r.Metrics.CounterTotal("blast.index_builds"), r.Metrics.CounterTotal("blast.index_reuses")
	steps := int64(r.Info.Queries * (r.Info.Procs - 1))
	if builds < 1 || builds > int64(r.Info.Queries) || builds+reuses != steps {
		t.Errorf("report shows %d index builds and %d reuses for %d queries in %d searches", builds, reuses, r.Info.Queries, steps)
	}
	if len(r.Ranks) != 4 {
		t.Fatalf("ranks = %d, want 4", len(r.Ranks))
	}
	cp := r.ExactPath
	if cp == nil {
		t.Fatal("exact critical path missing")
	}
	if cp.Finish != r.Summary.Wall {
		t.Fatalf("critical path finish %g != wall %g", cp.Finish, r.Summary.Wall)
	}
	if cp.Dominant == "" {
		t.Fatal("dominant blame category empty")
	}
	if r.Summary.Wall <= 0 || r.Summary.SearchFraction <= 0 {
		t.Fatalf("summary implausible: %+v", r.Summary)
	}
}

// TestArtifactDeterministic: two runs of the same seed/config produce
// byte-identical artifacts (the ISSUE's determinism acceptance criterion).
func TestArtifactDeterministic(t *testing.T) {
	a, b := runOnce(t), runOnce(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("artifacts differ across identical runs:\n%d vs %d bytes", len(a), len(b))
	}
}

// TestParseRejects: wrong kind and future versions are refused; a version-1
// artifact still parses, its dropped critical_path block ignored.
func TestParseRejects(t *testing.T) {
	old := `{"kind":"parblast-run","version":1,"summary":{"wall_s":2},"critical_path":{"rank":3,"finish_s":2}}`
	if r, err := report.ParseRun([]byte(old)); err != nil || r.Version != 1 || r.Summary.Wall != 2 {
		t.Fatalf("version-1 artifact: %+v, %v", r, err)
	}
	if _, err := report.ParseRun([]byte(`{"kind":"other","version":1}`)); err == nil {
		t.Fatal("wrong kind accepted")
	}
	if _, err := report.ParseRun([]byte(`{"kind":"parblast-run","version":99}`)); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := report.ParseRun([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}
