package parblast_test

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"parblast"
	"parblast/internal/report"
)

func buildWorkload(t *testing.T) ([]*parblast.Sequence, []*parblast.Sequence) {
	t.Helper()
	seqs, err := parblast.SynthesizeDB(parblast.DBConfig{
		Kind: parblast.Protein, NumSeqs: 80, MeanLen: 150, Seed: 5, FamilySize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := parblast.SampleQueries(seqs, parblast.QueryConfig{
		TargetBytes: 400, MeanLen: 100, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return seqs, queries
}

func TestPublicAPIEndToEnd(t *testing.T) {
	seqs, queries := buildWorkload(t)
	var outputs [][]byte
	for _, eng := range []parblast.Engine{
		parblast.EngineSequential, parblast.EngineMPIBlast, parblast.EnginePioBLAST,
	} {
		cluster, err := parblast.NewCluster(4, parblast.PlatformAltix)
		if err != nil {
			t.Fatal(err)
		}
		db, err := cluster.FormatDB("nr", seqs, "api nr")
		if err != nil {
			t.Fatal(err)
		}
		if eng == parblast.EngineMPIBlast {
			if err := cluster.PrepareFragments("nr", 3); err != nil {
				t.Fatal(err)
			}
		}
		res, err := cluster.Run(eng, parblast.Search{DB: db, Queries: queries, Output: "out"})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		out, err := cluster.ReadOutput("out")
		if err != nil {
			t.Fatal(err)
		}
		if res.OutputBytes != int64(len(out)) {
			t.Fatalf("%v: OutputBytes %d != file size %d", eng, res.OutputBytes, len(out))
		}
		outputs = append(outputs, out)
	}
	if !bytes.Equal(outputs[0], outputs[1]) || !bytes.Equal(outputs[0], outputs[2]) {
		t.Fatal("engines disagree through the public API")
	}
	if !strings.Contains(string(outputs[0]), "BLASTP") {
		t.Fatal("report missing banner")
	}
}

func TestPlatformAndEngineNames(t *testing.T) {
	if parblast.PlatformAltix.String() != "altix-xfs" ||
		parblast.PlatformBladeCluster.String() != "blade-nfs" ||
		parblast.PlatformIdeal.String() != "ideal" {
		t.Fatal("platform names wrong")
	}
	if parblast.EnginePioBLAST.String() != "pioBLAST" ||
		parblast.EngineMPIBlast.String() != "mpiBLAST" ||
		parblast.EngineSequential.String() != "sequential" {
		t.Fatal("engine names wrong")
	}
	if !strings.Contains(parblast.Platform(99).String(), "99") {
		t.Fatal("unknown platform should render its number")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := parblast.NewCluster(0, parblast.PlatformAltix); err == nil {
		t.Fatal("zero-proc cluster accepted")
	}
	if _, err := parblast.NewCluster(2, parblast.Platform(42)); err == nil {
		t.Fatal("unknown platform accepted")
	}
	bad := parblast.DefaultCostModel()
	bad.NetBandwidth = 0
	if _, err := parblast.NewClusterWithCost(2, parblast.PlatformAltix, bad); err == nil {
		t.Fatal("invalid cost model accepted")
	}
}

func TestRunValidation(t *testing.T) {
	cluster, err := parblast.NewCluster(2, parblast.PlatformIdeal)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Run(parblast.EnginePioBLAST, parblast.Search{}); err == nil {
		t.Fatal("search without database accepted")
	}
	seqs, queries := buildWorkload(t)
	db, err := cluster.FormatDB("nr", seqs, "t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Run(parblast.Engine(99), parblast.Search{DB: db, Queries: queries, Output: "o"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestDNADefaultsSelected(t *testing.T) {
	cluster, err := parblast.NewCluster(3, parblast.PlatformIdeal)
	if err != nil {
		t.Fatal(err)
	}
	seqs, err := parblast.SynthesizeDB(parblast.DBConfig{
		Kind: parblast.DNA, NumSeqs: 20, MeanLen: 600, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := parblast.SampleQueries(seqs, parblast.QueryConfig{
		TargetBytes: 600, MeanLen: 300, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := cluster.FormatDB("nt", seqs, "dna db")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Run(parblast.EnginePioBLAST, parblast.Search{
		DB: db, Queries: queries, Output: "out",
	}); err != nil {
		t.Fatal(err)
	}
	out, err := cluster.ReadOutput("out")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "BLASTN") {
		t.Fatal("DNA database did not select blastn defaults")
	}
}

func TestMultiVolumeViaAPI(t *testing.T) {
	cluster, err := parblast.NewCluster(4, parblast.PlatformAltix)
	if err != nil {
		t.Fatal(err)
	}
	seqs, queries := buildWorkload(t)
	db, err := cluster.FormatDBVolumes("nr", seqs, "volumes", 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Volumes) < 2 {
		t.Fatalf("expected multiple volumes, got %d", len(db.Volumes))
	}
	if _, err := cluster.Run(parblast.EnginePioBLAST, parblast.Search{
		DB: db, Queries: queries, Output: "out",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceThroughPublicAPI(t *testing.T) {
	seqs, queries := buildWorkload(t)
	cluster, err := parblast.NewCluster(3, parblast.PlatformAltix)
	if err != nil {
		t.Fatal(err)
	}
	collector := cluster.Trace()
	db, err := cluster.FormatDB("nr", seqs, "traced")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Run(parblast.EnginePioBLAST, parblast.Search{
		DB: db, Queries: queries, Output: "out",
	}); err != nil {
		t.Fatal(err)
	}
	if len(collector.Ranks()) != 3 {
		t.Fatalf("traced %d ranks, want 3", len(collector.Ranks()))
	}
	var buf strings.Builder
	collector.Render(&buf, 60)
	if !strings.Contains(buf.String(), "rank   0") {
		t.Fatalf("timeline malformed:\n%s", buf.String())
	}
}

func TestTabularThroughPublicAPI(t *testing.T) {
	seqs, queries := buildWorkload(t)
	cluster, err := parblast.NewCluster(4, parblast.PlatformAltix)
	if err != nil {
		t.Fatal(err)
	}
	db, err := cluster.FormatDB("nr", seqs, "tab")
	if err != nil {
		t.Fatal(err)
	}
	opts := parblast.DefaultProteinOptions()
	opts.OutFormat = parblast.FormatTabular
	if _, err := cluster.Run(parblast.EnginePioBLAST, parblast.Search{
		DB: db, Queries: queries, Output: "out", Options: opts,
	}); err != nil {
		t.Fatal(err)
	}
	out, err := cluster.ReadOutput("out")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "# Fields:") {
		t.Fatal("tabular output missing through public API")
	}
}

func TestAdaptiveBatchingThroughPublicAPI(t *testing.T) {
	seqs, queries := buildWorkload(t)
	cluster, err := parblast.NewCluster(4, parblast.PlatformAltix)
	if err != nil {
		t.Fatal(err)
	}
	db, err := cluster.FormatDB("nr", seqs, "mem")
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Run(parblast.EnginePioBLAST, parblast.Search{
		DB: db, Queries: queries, Output: "out",
		Pio: parblast.PioOptions{MemoryBudgetBytes: 32 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputBytes == 0 {
		t.Fatal("no output")
	}
}

func TestSearchThreadsInvarianceThroughPublicAPI(t *testing.T) {
	seqs, queries := buildWorkload(t)
	var outputs [][]byte
	for _, threads := range []int{1, 8} {
		cluster, err := parblast.NewCluster(4, parblast.PlatformAltix)
		if err != nil {
			t.Fatal(err)
		}
		db, err := cluster.FormatDB("nr", seqs, "api nr")
		if err != nil {
			t.Fatal(err)
		}
		opts := parblast.DefaultProteinOptions()
		opts.SearchThreads = threads
		if _, err := cluster.Run(parblast.EnginePioBLAST, parblast.Search{
			DB: db, Queries: queries, Output: "out", Options: opts,
		}); err != nil {
			t.Fatal(err)
		}
		out, err := cluster.ReadOutput("out")
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, out)
	}
	if !bytes.Equal(outputs[0], outputs[1]) {
		t.Fatal("SearchThreads changed engine output bytes")
	}
}

// TestClusterReuseSameWall: a world's clocks start at zero, so the storage
// queues it meets must be empty too — the same job run three times on one
// cluster takes the same virtual time each time, in both engines.
func TestClusterReuseSameWall(t *testing.T) {
	seqs, queries := buildWorkload(t)
	for _, eng := range []parblast.Engine{parblast.EnginePioBLAST, parblast.EngineMPIBlast} {
		cluster, err := parblast.NewCluster(4, parblast.PlatformBladeCluster)
		if err != nil {
			t.Fatal(err)
		}
		db, err := cluster.FormatDB("nr", seqs, "api nr")
		if err != nil {
			t.Fatal(err)
		}
		if err := cluster.PrepareFragments("nr", 3); err != nil {
			t.Fatal(err)
		}
		var first float64
		for i := 0; i < 3; i++ {
			res, err := cluster.Run(eng, parblast.Search{DB: db, Queries: queries, Output: "out"})
			if err != nil {
				t.Fatalf("%v run %d: %v", eng, i, err)
			}
			if i == 0 {
				first = res.Wall
			} else if res.Wall != first {
				t.Fatalf("%v run %d: wall %g, first run %g", eng, i, res.Wall, first)
			}
		}
	}
}

// TestNodeSpeedsThroughPublicAPI: Search.NodeSpeeds reaches the runtime of
// both engines — a 3×-slow worker slows either one down.
func TestNodeSpeedsThroughPublicAPI(t *testing.T) {
	seqs, queries := buildWorkload(t)
	for _, eng := range []parblast.Engine{parblast.EnginePioBLAST, parblast.EngineMPIBlast} {
		cluster, err := parblast.NewCluster(4, parblast.PlatformAltix)
		if err != nil {
			t.Fatal(err)
		}
		db, err := cluster.FormatDB("nr", seqs, "api nr")
		if err != nil {
			t.Fatal(err)
		}
		if err := cluster.PrepareFragments("nr", 3); err != nil {
			t.Fatal(err)
		}
		s := parblast.Search{DB: db, Queries: queries, Output: "out"}
		even, err := cluster.Run(eng, s)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		s.NodeSpeeds = []float64{1, 1, 1, 3}
		skewed, err := cluster.Run(eng, s)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if skewed.Wall <= even.Wall {
			t.Fatalf("%v: a 3x-slow worker did not slow the run: %g vs %g", eng, skewed.Wall, even.Wall)
		}
	}
}

// TestNonFiniteSpeedsRejected: a NaN or infinite node speed or degrade
// slow-down is refused with a named error by both engines. NaN used to run
// at speed 1 silently; +Inf ended as "rank N crashed at t=+Inf" although no
// crash was scheduled.
func TestNonFiniteSpeedsRejected(t *testing.T) {
	seqs, queries := buildWorkload(t)
	cluster, err := parblast.NewCluster(4, parblast.PlatformAltix)
	if err != nil {
		t.Fatal(err)
	}
	db, err := cluster.FormatDB("nr", seqs, "api nr")
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.PrepareFragments("nr", 3); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		for _, tc := range []struct {
			want string
			set  func(*parblast.Search)
		}{
			{"non-finite speed factor", func(s *parblast.Search) { s.NodeSpeeds = []float64{1, v} }},
			{"non-finite Slow", func(s *parblast.Search) {
				s.Faults = []parblast.Fault{{Rank: 1, At: 0.1, Kind: parblast.FaultDegrade, Slow: v}}
			}},
		} {
			for _, eng := range []parblast.Engine{parblast.EnginePioBLAST, parblast.EngineMPIBlast} {
				s := parblast.Search{DB: db, Queries: queries, Output: "out"}
				tc.set(&s)
				if _, err := cluster.Run(eng, s); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%g on %v: error %v, want one saying %q", v, eng, err, tc.want)
				}
			}
		}
	}
}

// TestReinterpretedInputRejected: values the engines used to accept and
// quietly turn into something else are refused with a named error before a
// rank starts. A NaN batch arrival served to the end with a NaN latency and
// +Inf died inside a rank as a codec error; a negative memory budget meant
// "off", a budget beside a query batch silently won, a negative merge
// fan-out rode along unused, a negative fetch window ran as the serial fetch.
func TestReinterpretedInputRejected(t *testing.T) {
	seqs, queries := buildWorkload(t)
	cluster, err := parblast.NewCluster(4, parblast.PlatformAltix)
	if err != nil {
		t.Fatal(err)
	}
	db, err := cluster.FormatDB("nr", seqs, "api nr")
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.PrepareFragments("nr", 3); err != nil {
		t.Fatal(err)
	}
	engines := []parblast.Engine{parblast.EnginePioBLAST, parblast.EngineMPIBlast}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		batches, err := parblast.Arrivals(queries, parblast.ArrivalConfig{Rate: 5, BatchMean: 1, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		last := len(batches) - 1
		batches[last].Arrival = v
		want := "batch " + strconv.Itoa(batches[last].Seq) + " has non-finite arrival"
		for _, eng := range engines {
			s := parblast.Search{DB: db, Queries: queries, Output: "out"}
			if _, _, err := cluster.Serve(eng, s, batches, 0); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("arrival %g on %v: error %v, want one saying %q", v, eng, err, want)
			}
		}
	}
	for _, tc := range []struct {
		want    string
		engines []parblast.Engine
		set     func(*parblast.Search)
	}{
		{"negative memory budget", engines[:1], func(s *parblast.Search) { s.Pio.MemoryBudgetBytes = -1 }},
		{"both set the batch boundaries", engines[:1], func(s *parblast.Search) {
			s.Pio.MemoryBudgetBytes, s.Pio.QueryBatch = 32<<10, 2
		}},
		{"negative merge fan-out", engines, func(s *parblast.Search) { s.Pio.MergeFanout, s.Mpi.MergeFanout = -1, -1 }},
		{"negative fetch window", engines[1:], func(s *parblast.Search) { s.Mpi.FetchWindow = -1 }},
	} {
		for _, eng := range tc.engines {
			s := parblast.Search{DB: db, Queries: queries, Output: "out"}
			tc.set(&s)
			if _, err := cluster.Run(eng, s); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%v: error %v, want one saying %q", eng, err, tc.want)
			}
		}
	}
}

// TestExactCriticalPathOfEachEngine: a traced run of either engine yields
// the one critical-path attribution a report carries — anchored at the
// run's wall time, built from well-formed flows only, and blamed completely
// (the categories tile finish − unexplained).
func TestExactCriticalPathOfEachEngine(t *testing.T) {
	seqs, queries := buildWorkload(t)
	for _, eng := range []parblast.Engine{parblast.EnginePioBLAST, parblast.EngineMPIBlast} {
		cluster, err := parblast.NewCluster(4, parblast.PlatformAltix)
		if err != nil {
			t.Fatal(err)
		}
		col := cluster.Trace()
		db, err := cluster.FormatDB("nr", seqs, "api nr")
		if err != nil {
			t.Fatal(err)
		}
		if err := cluster.PrepareFragments("nr", 3); err != nil {
			t.Fatal(err)
		}
		res, err := cluster.Run(eng, parblast.Search{DB: db, Queries: queries, Output: "out"})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		p := report.ExactCriticalPath(col)
		if p == nil {
			t.Fatalf("%v: traced run has no exact critical path", eng)
		}
		if p.Finish != res.Wall {
			t.Errorf("%v: path finishes at %g, run at %g", eng, p.Finish, res.Wall)
		}
		if got, want := p.Blame.Total(), p.Finish-p.Unexplained; got <= 0 || math.Abs(got-want) > 1e-9 {
			t.Errorf("%v: blame %g does not tile finish %g − unexplained %g", eng, got, p.Finish, p.Unexplained)
		}
		if p.Hops == 0 || p.DroppedFlows != 0 {
			t.Errorf("%v: %d cross-rank hops, %d malformed flows", eng, p.Hops, p.DroppedFlows)
		}
	}
}

// TestIllegalCapsRejected: a negative result cap or thread count is rejected
// up front with a reason by both engines and the sequential oracle — it used
// to reach a slice expression and come back as a rank panic, or silently
// mean GOMAXPROCS.
func TestIllegalCapsRejected(t *testing.T) {
	seqs, queries := buildWorkload(t)
	cluster, err := parblast.NewCluster(4, parblast.PlatformAltix)
	if err != nil {
		t.Fatal(err)
	}
	db, err := cluster.FormatDB("nr", seqs, "api nr")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		set  func(*parblast.SearchOptions)
	}{
		{"MaxTargetSeqs", func(o *parblast.SearchOptions) { o.MaxTargetSeqs = -1 }},
		{"MaxHSPsPerSubject", func(o *parblast.SearchOptions) { o.MaxHSPsPerSubject = -1 }},
		{"SearchThreads", func(o *parblast.SearchOptions) { o.SearchThreads = -1 }},
	} {
		for _, eng := range []parblast.Engine{parblast.EnginePioBLAST, parblast.EngineMPIBlast, parblast.EngineSequential} {
			opts := parblast.DefaultProteinOptions()
			tc.set(&opts)
			_, err := cluster.Run(eng, parblast.Search{DB: db, Queries: queries, Output: "out", Options: opts})
			if err == nil {
				t.Errorf("%s = -1 accepted by %v", tc.name, eng)
			} else if reason := tc.name + "=-1"; !strings.Contains(err.Error(), reason) {
				t.Errorf("%s = -1 on %v: error %q does not give the reason %q", tc.name, eng, err, reason)
			}
		}
	}
}

// TestNilAndEmptyInputRejected: input a caller can build by hand — an empty
// database, a nil sequence, one with no alphabet — is refused with a named
// error before anything runs, by the façade for the database and by every
// engine for the queries. Each of these used to panic the process: an index
// out of range in FormatDB, a nil dereference in engine.PackQueries.
func TestNilAndEmptyInputRejected(t *testing.T) {
	seqs, queries := buildWorkload(t)
	cluster, err := parblast.NewCluster(4, parblast.PlatformAltix)
	if err != nil {
		t.Fatal(err)
	}
	bare := &parblast.Sequence{ID: "bare", Residues: queries[0].Residues}
	for _, tc := range []struct {
		name, want string
		seqs       []*parblast.Sequence
	}{
		{"no sequences", "needs at least one sequence", nil},
		{"nil first sequence", "sequence 0 is nil", []*parblast.Sequence{nil, seqs[0]}},
		{"nil later sequence", "sequence 1 is nil", []*parblast.Sequence{seqs[0], nil}},
		{"sequence without alphabet", "sequence 0 is nil or has no alphabet", []*parblast.Sequence{bare}},
	} {
		for name, format := range map[string]func() (*parblast.DB, error){
			"FormatDB":        func() (*parblast.DB, error) { return cluster.FormatDB("bad", tc.seqs, "t") },
			"FormatDBVolumes": func() (*parblast.DB, error) { return cluster.FormatDBVolumes("bad", tc.seqs, "t", 1000) },
		} {
			if _, err := format(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, %s: error %v, want one saying %q", name, tc.name, err, tc.want)
			}
		}
	}

	db, err := cluster.FormatDB("nr", seqs, "api nr")
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.PrepareFragments("nr", 3); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		queries    []*parblast.Sequence
	}{
		{"nil first query", "query 0 is nil", []*parblast.Sequence{nil, queries[0]}},
		{"nil later query", "query 1 is nil", []*parblast.Sequence{queries[0], nil}},
		{"query without alphabet", "query 0 is nil or has no alphabet", []*parblast.Sequence{bare}},
	} {
		for _, eng := range []parblast.Engine{parblast.EnginePioBLAST, parblast.EngineMPIBlast, parblast.EngineSequential} {
			_, err := cluster.Run(eng, parblast.Search{DB: db, Queries: tc.queries, Output: "out"})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s on %v: error %v, want one saying %q", tc.name, eng, err, tc.want)
			}
		}
	}
}
