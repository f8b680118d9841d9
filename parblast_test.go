package parblast_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
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

// withTreeMerge sets the tree merge in eng's options block, the only one eng
// reads: the façade rejects a set field of the other engine's block.
func withTreeMerge(eng parblast.Engine, s *parblast.Search, on bool) {
	if eng == parblast.EngineMPIBlast {
		s.Mpi.TreeMerge = on
	} else {
		s.Pio.TreeMerge = on
	}
}

// TestFacadeRejectsWhatAnEngineWouldDrop: every field of one engine's options
// block is rejected by name on the other engine and on the sequential one, as
// is a merge fan-out without the tree merge on either engine, through Run and
// Serve alike. Each used to run: the parallel engines dropped the other block
// and the fan-out, the sequential engine named no field, and Serve on it
// answered only that it cannot serve.
func TestFacadeRejectsWhatAnEngineWouldDrop(t *testing.T) {
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
	batches, err := parblast.Arrivals(queries, parblast.ArrivalConfig{Rate: 5, BatchMean: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	type field struct {
		name string
		set  func(*parblast.Search)
	}
	pio := []field{
		{"EarlyPrune", func(s *parblast.Search) { s.Pio.EarlyPrune = true }},
		{"IndependentOutput", func(s *parblast.Search) { s.Pio.IndependentOutput = true }},
		{"DynamicAssignment", func(s *parblast.Search) { s.Pio.DynamicAssignment = true }},
		{"QueryBatch", func(s *parblast.Search) { s.Pio.QueryBatch = 2 }},
		{"CollectiveRead", func(s *parblast.Search) { s.Pio.CollectiveRead = true }},
		{"PrefetchDepth", func(s *parblast.Search) { s.Pio.PrefetchDepth = 1 }},
		{"MemoryBudgetBytes", func(s *parblast.Search) { s.Pio.MemoryBudgetBytes = 1 << 20 }},
		{"FaultTolerant", func(s *parblast.Search) { s.Pio.FaultTolerant = true }},
		{"TreeMerge", func(s *parblast.Search) { s.Pio.TreeMerge = true }},
		{"MergeFanout", func(s *parblast.Search) { s.Pio.MergeFanout = 4 }},
		{"IOHints", func(s *parblast.Search) { s.Pio.IOHints.CbNodes = 2 }},
		{"IOTuner", func(s *parblast.Search) { s.Pio.IOTuner = parblast.NewIOTuner() }},
	}
	mpi := []field{
		{"FetchWindow", func(s *parblast.Search) { s.Mpi.FetchWindow = 4 }},
		{"TreeMerge", func(s *parblast.Search) { s.Mpi.TreeMerge = true }},
		{"MergeFanout", func(s *parblast.Search) { s.Mpi.MergeFanout = 4 }},
	}
	if n := reflect.TypeOf(parblast.PioOptions{}).NumField(); n != len(pio) {
		t.Fatalf("PioOptions has %d fields, the table %d", n, len(pio))
	}
	if n := reflect.TypeOf(parblast.MpiOptions{}).NumField(); n != len(mpi) {
		t.Fatalf("MpiOptions has %d fields, the table %d", n, len(mpi))
	}
	type row struct {
		eng  parblast.Engine
		want string
		set  func(*parblast.Search)
	}
	var rows []row
	for _, f := range pio {
		for _, eng := range []parblast.Engine{parblast.EngineMPIBlast, parblast.EngineSequential} {
			rows = append(rows, row{eng, "reads no Pio options: Pio." + f.name + " must be unset", f.set})
		}
	}
	for _, f := range mpi {
		for _, eng := range []parblast.Engine{parblast.EnginePioBLAST, parblast.EngineSequential} {
			rows = append(rows, row{eng, "reads no Mpi options: Mpi." + f.name + " must be unset", f.set})
		}
	}
	const fanoutAlone = "MergeFanout 4 is the tree merge's fan-out: it needs TreeMerge"
	rows = append(rows,
		row{parblast.EnginePioBLAST, fanoutAlone, func(s *parblast.Search) { s.Pio.MergeFanout = 4 }},
		row{parblast.EngineMPIBlast, fanoutAlone, func(s *parblast.Search) { s.Mpi.MergeFanout = 4 }})
	for _, r := range rows {
		s := parblast.Search{DB: db, Queries: queries, Output: "out"}
		r.set(&s)
		_, runErr := cluster.Run(r.eng, s)
		_, _, serveErr := cluster.Serve(r.eng, s, batches, 0)
		for call, err := range []error{runErr, serveErr} {
			if err == nil || !strings.Contains(err.Error(), r.want) {
				t.Errorf("%v %s: error %v, want one saying %q", r.eng, [...]string{"Run", "Serve"}[call], err, r.want)
			}
		}
	}
}

// TestRunSpecValidate: each rejection of the façade is reachable from
// RunSpec.Validate with no cluster built, and names the field; a field the
// engine would drop is named before a stream it cannot serve.
func TestRunSpecValidate(t *testing.T) {
	valid := parblast.RunSpec{Engine: parblast.EnginePioBLAST, Procs: 4, Search: parblast.Search{DB: &parblast.DB{}}}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid spec refused: %v", err)
	}
	seq := func(r *parblast.RunSpec) { r.Engine = parblast.EngineSequential }
	for _, tc := range []struct {
		want string
		set  func(*parblast.RunSpec)
	}{
		{"Search.DB is nil", func(r *parblast.RunSpec) { r.Search.DB = nil }},
		{"Faults must be empty", func(r *parblast.RunSpec) { seq(r); r.Search.Faults = []parblast.Fault{{Rank: 1}} }},
		{"NodeSpeeds must be empty", func(r *parblast.RunSpec) { seq(r); r.Search.NodeSpeeds = []float64{1} }},
		{"Fragments must be 0, got 3", func(r *parblast.RunSpec) { seq(r); r.Search.Fragments = 3 }},
		{"Pio.EarlyPrune must be unset", func(r *parblast.RunSpec) { r.Engine = parblast.EngineMPIBlast; r.Search.Pio.EarlyPrune = true }},
		{"Pio.EarlyPrune must be unset", func(r *parblast.RunSpec) { seq(r); r.Serve = true; r.Search.Pio.EarlyPrune = true }},
		{"Mpi.FetchWindow must be unset", func(r *parblast.RunSpec) { r.Search.Mpi.FetchWindow = 2 }},
		{"unknown engine Engine(7)", func(r *parblast.RunSpec) { r.Engine = 7 }},
		{"Serve must be false", func(r *parblast.RunSpec) { seq(r); r.Serve = true }},
		{"Batches and AdmitCap are a served run's", func(r *parblast.RunSpec) { r.Batches = []parblast.Batch{} }},
		{"Batches and AdmitCap are a served run's", func(r *parblast.RunSpec) { r.AdmitCap = 2 }},
		{"got Procs 0", func(r *parblast.RunSpec) { r.Procs = 0 }},
		{"unknown platform Platform(9)", func(r *parblast.RunSpec) { r.Platform = 9 }},
	} {
		r := valid
		tc.set(&r)
		if err := r.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("error %v, want one saying %q", err, tc.want)
		}
	}
}

// TestStagePreparesFragments: Stage cuts mpiBLAST's physical fragments, one
// per worker or Fragments of them, and none for pioBLAST, and the staged
// spec runs on the staged cluster.
func TestStagePreparesFragments(t *testing.T) {
	seqs, queries := buildWorkload(t)
	for _, tc := range []struct {
		eng             parblast.Engine
		fragments, want int
	}{
		{parblast.EngineMPIBlast, 0, 4},
		{parblast.EngineMPIBlast, 7, 7},
		{parblast.EnginePioBLAST, 0, 0},
		{parblast.EnginePioBLAST, 7, 0},
	} {
		spec := parblast.RunSpec{Engine: tc.eng, Procs: 5, Search: parblast.Search{
			Queries: queries, Output: "out", Fragments: tc.fragments}}
		c, staged, err := parblast.Stage(spec, parblast.DefaultCostModel(), func(c *parblast.Cluster) (*parblast.DB, error) {
			return c.FormatDB("nr", seqs, "api nr")
		})
		if err != nil {
			t.Fatalf("%v fragments %d: %v", tc.eng, tc.fragments, err)
		}
		frags := map[string]bool{}
		for _, path := range c.SharedFS().List() {
			if rest, ok := strings.CutPrefix(path, "nr.frag"); ok {
				frags[strings.SplitN(rest, ".", 2)[0]] = true
			}
		}
		if len(frags) != tc.want {
			t.Errorf("%v fragments %d: %d prepared, want %d", tc.eng, tc.fragments, len(frags), tc.want)
		}
		res, _, out, err := c.Exec(staged)
		if err != nil || int64(len(out)) != res.OutputBytes || len(out) == 0 {
			t.Errorf("%v fragments %d: ran to %d bytes (%d reported), %v", tc.eng, tc.fragments, len(out), res.OutputBytes, err)
		}
	}
}

// TestServeEmptyStreamIsAnError: serving no batches is an error naming the
// uncovered queries, not a one-shot run, whatever the admission cap.
func TestServeEmptyStreamIsAnError(t *testing.T) {
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
	s := parblast.Search{DB: db, Queries: queries, Output: "out"}
	for _, eng := range []parblast.Engine{parblast.EnginePioBLAST, parblast.EngineMPIBlast} {
		for _, call := range []struct {
			batches  []parblast.Batch
			admitCap int
		}{{nil, 0}, {[]parblast.Batch{}, 0}, {nil, 3}} {
			want := fmt.Sprintf("stream covers 0 queries, job has %d", len(queries))
			if _, _, err := cluster.Serve(eng, s, call.batches, call.admitCap); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%v Serve(%#v, %d): error %v, want one saying %q", eng, call.batches, call.admitCap, err, want)
			}
		}
	}
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
		parblast.PlatformIdeal.String() != "ideal" ||
		parblast.PlatformSAN.String() != "san-ide" {
		t.Fatal("platform names wrong")
	}
	san, err := parblast.NewCluster(2, parblast.PlatformSAN)
	if err != nil {
		t.Fatal(err)
	}
	if name := san.SharedFS().Profile().Name; name != "san" {
		t.Fatalf("PlatformSAN's shared store is %q, want san", name)
	}
	if parblast.EnginePioBLAST.String() != "pioBLAST" ||
		parblast.EngineMPIBlast.String() != "mpiBLAST" ||
		parblast.EngineSequential.String() != "sequential" {
		t.Fatal("engine names wrong")
	}
	if !strings.Contains(parblast.Platform(99).String(), "99") {
		t.Fatal("unknown platform should render its number")
	}
	// The short names the CLI's flags and the experiments' rows use come
	// from the same table, and parse back.
	for short, want := range map[string]parblast.Platform{"altix": parblast.PlatformAltix,
		"blade": parblast.PlatformBladeCluster, "ideal": parblast.PlatformIdeal, "san": parblast.PlatformSAN} {
		if p, err := parblast.ParsePlatform(short); err != nil || p != want {
			t.Errorf("ParsePlatform(%q) = %v, %v; want %v", short, p, err, want)
		}
	}
	for short, want := range map[string]parblast.Engine{"seq": parblast.EngineSequential,
		"mpi": parblast.EngineMPIBlast, "pio": parblast.EnginePioBLAST} {
		if e, err := parblast.ParseEngine(short); err != nil || e != want || e.Short() != short {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v, named %q", short, e, err, want, short)
		}
	}
	if _, err := parblast.ParsePlatform("altix-xfs"); err == nil || !strings.Contains(err.Error(), "want altix, blade, ideal, san") {
		t.Errorf("a long platform name parsed: %v", err)
	}
	if _, err := parblast.ParseEngine("pioBLAST"); err == nil || !strings.Contains(err.Error(), "want seq, mpi, pio") {
		t.Errorf("a long engine name parsed: %v", err)
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

// TestNonFiniteSpeedsRejected: a NaN, infinite or zero node speed is
// refused with a named error by both engines. NaN and 0 used to run at speed
// 1 silently; +Inf ended as "rank N crashed at t=+Inf" although no crash was
// scheduled.
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
		for _, eng := range []parblast.Engine{parblast.EnginePioBLAST, parblast.EngineMPIBlast} {
			s := parblast.Search{DB: db, Queries: queries, Output: "out", NodeSpeeds: []float64{1, v}}
			if _, err := cluster.Run(eng, s); err == nil || !strings.Contains(err.Error(), "non-finite speed factor") {
				t.Errorf("%g on %v: error %v, want one saying %q", v, eng, err, "non-finite speed factor")
			}
		}
	}
	for _, eng := range []parblast.Engine{parblast.EnginePioBLAST, parblast.EngineMPIBlast} {
		s := parblast.Search{DB: db, Queries: queries, Output: "out", NodeSpeeds: []float64{1, 0}}
		if _, err := cluster.Run(eng, s); err == nil || !strings.Contains(err.Error(), "speed factor 0 for rank 1") {
			t.Errorf("zero speed on %v: error %v, want one naming the factor and the rank", eng, err)
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
		{"negative merge fan-out", engines[:1], func(s *parblast.Search) { s.Pio.MergeFanout = -1 }},
		{"negative merge fan-out", engines[1:], func(s *parblast.Search) { s.Mpi.MergeFanout = -1 }},
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

// TestOutOfRangeInputRejected: an unknown report format, a negative two-hit
// window and more node speeds than ranks are rejected by name. Each used to
// run: the format as the pairwise report, the window as one-hit seeding, the
// surplus speeds ignored. The sequential engine runs on no ranks and cuts no
// partitions, so it rejects faults, speeds, fragments and engine options by
// name; it used to drop each of them and return the plain report.
func TestOutOfRangeInputRejected(t *testing.T) {
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
	all := []parblast.Engine{parblast.EnginePioBLAST, parblast.EngineMPIBlast, parblast.EngineSequential}
	seqOnly := all[2:]
	for _, tc := range []struct {
		want    string
		engines []parblast.Engine
		set     func(*parblast.Search)
	}{
		{"OutFormat=7", all, func(s *parblast.Search) { s.Options.OutFormat = 7 }},
		{"OutFormat=-1", all, func(s *parblast.Search) { s.Options.OutFormat = -1 }},
		{"TwoHitWindow=-5", all, func(s *parblast.Search) { s.Options.TwoHitWindow = -5 }},
		{"9 speed factors for world size 4", all[:2], func(s *parblast.Search) {
			s.NodeSpeeds = []float64{1, 1, 1, 1, 1, 1, 1, 1, 1}
		}},
		{"Faults must be empty", seqOnly, func(s *parblast.Search) {
			s.Faults = []parblast.Fault{{Rank: 2, At: 0}}
		}},
		{"NodeSpeeds must be empty", seqOnly, func(s *parblast.Search) {
			s.NodeSpeeds = []float64{1, 1, 1, 1, 1, 1, 1, 1, 1}
		}},
		{"Fragments must be 0, got 7", seqOnly, func(s *parblast.Search) { s.Fragments = 7 }},
		{"reads no Pio options", seqOnly, func(s *parblast.Search) { s.Pio.EarlyPrune = true }},
		{"reads no Mpi options", seqOnly, func(s *parblast.Search) { s.Mpi.FetchWindow = 4 }},
	} {
		for _, eng := range tc.engines {
			s := parblast.Search{DB: db, Queries: queries, Output: "out", Options: parblast.DefaultProteinOptions()}
			tc.set(&s)
			if _, err := cluster.Run(eng, s); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%v: error %v, want one saying %q", eng, err, tc.want)
			}
		}
	}
}

// TestNonFiniteCutoffsRejected: a NaN or infinite E-value, X-drop or gap
// trigger is rejected by name by both engines and the sequential oracle. Each
// used to pass the "<= 0" checks (the gap trigger had none) and run to a
// report.
func TestNonFiniteCutoffsRejected(t *testing.T) {
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
		set  func(o *parblast.SearchOptions, v float64)
	}{
		{"EValue", func(o *parblast.SearchOptions, v float64) { o.EValue = v }},
		{"XDropUngapped", func(o *parblast.SearchOptions, v float64) { o.XDropUngapped = v }},
		{"XDropGapped", func(o *parblast.SearchOptions, v float64) { o.XDropGapped = v }},
		{"XDropFinal", func(o *parblast.SearchOptions, v float64) { o.XDropFinal = v }},
		{"GapTriggerBits", func(o *parblast.SearchOptions, v float64) { o.GapTriggerBits = v }},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1)} {
			for _, eng := range []parblast.Engine{parblast.EnginePioBLAST, parblast.EngineMPIBlast, parblast.EngineSequential} {
				opts := parblast.DefaultProteinOptions()
				tc.set(&opts, v)
				_, err := cluster.Run(eng, parblast.Search{DB: db, Queries: queries, Output: "out", Options: opts})
				if err == nil || !strings.Contains(err.Error(), tc.name+" must be finite") {
					t.Errorf("%s = %g on %v: error %v, want one naming %s", tc.name, v, eng, err, tc.name)
				}
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
