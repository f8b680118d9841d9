package report_test

import (
	"bytes"
	"testing"

	"parblast"
	"parblast/internal/report"
	"parblast/internal/simtime"
)

// runOnce executes a small pioBLAST run with telemetry enabled and returns
// the built artifact bytes.
func runOnce(t *testing.T) []byte {
	t.Helper()
	cluster, err := parblast.NewCluster(4, parblast.PlatformAltix)
	if err != nil {
		t.Fatal(err)
	}
	reg := cluster.Metrics()
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
	cp := r.CriticalPath
	if cp == nil {
		t.Fatal("critical path missing")
	}
	if cp.Finish != r.Summary.Wall {
		t.Fatalf("critical rank finish %g != wall %g", cp.Finish, r.Summary.Wall)
	}
	if cp.DominantPhase == "" {
		t.Fatal("dominant phase empty")
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

// TestCriticalPathAttribution exercises the straggler analysis on a
// hand-built result: rank 2 finishes last with search dominating, rank 1
// idles most.
func TestCriticalPathAttribution(t *testing.T) {
	mkClock := func(phases map[string]float64) *simtime.Clock {
		c := simtime.NewClock()
		for _, p := range []string{"search", "output", "idle"} {
			if d, ok := phases[p]; ok {
				c.SetPhase(p)
				c.Advance(d)
			}
		}
		return c
	}
	clocks := []*simtime.Clock{
		mkClock(map[string]float64{"search": 4, "output": 1}),
		mkClock(map[string]float64{"search": 1, "idle": 5}),
		mkClock(map[string]float64{"search": 7, "output": 2}),
	}
	var res parblast.Result
	res.Clocks = clocks
	res.Wall = 9
	r := report.Build(report.RunInfo{Engine: "test", Procs: 3}, res, nil)
	cp := r.CriticalPath
	if cp == nil {
		t.Fatal("no critical path")
	}
	if cp.Rank != 2 || cp.Finish != 9 {
		t.Fatalf("critical rank = %d@%g, want 2@9", cp.Rank, cp.Finish)
	}
	if cp.DominantPhase != "search" || cp.DominantShare < 0.7 {
		t.Fatalf("dominant = %s (%.2f), want search ≥0.7", cp.DominantPhase, cp.DominantShare)
	}
	// Second-slowest finishes at 6 → straggler lead 3.
	if cp.StragglerLead != 3 {
		t.Fatalf("straggler lead = %g, want 3", cp.StragglerLead)
	}
	if cp.MaxIdleRank != 1 {
		t.Fatalf("max idle rank = %d, want 1", cp.MaxIdleRank)
	}
	if got := r.Ranks[1].IdleFraction; got < 0.8 {
		t.Fatalf("rank 1 idle fraction = %g, want ≥0.8", got)
	}
}

// TestParseRejects: wrong kind and future versions are refused.
func TestParseRejects(t *testing.T) {
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
