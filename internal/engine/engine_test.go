package engine

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"parblast/internal/blast"
	"parblast/internal/formatdb"
	"parblast/internal/seq"
	"parblast/internal/simtime"
	"parblast/internal/vfs"
	"parblast/internal/workload"
)

func TestJobValidate(t *testing.T) {
	good := &Job{
		DBBase:     "nr",
		Queries:    []*seq.Sequence{seq.New(seq.ProteinAlphabet, "q", "", "MKVLAW")},
		Options:    blast.DefaultProteinOptions(),
		OutputPath: "out",
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Job){
		func(j *Job) { j.DBBase = "" },
		func(j *Job) { j.Queries = nil },
		func(j *Job) { j.OutputPath = "" },
		func(j *Job) { j.Fragments = -1 },
		func(j *Job) { j.Options.Matrix = nil },
	}
	for i, mod := range cases {
		j := *good
		mod(&j)
		if err := j.Validate(); err == nil {
			t.Fatalf("case %d: invalid job accepted", i)
		}
	}
}

func TestMergeHits(t *testing.T) {
	hits := []HitMeta{
		{OID: 3, Score: 100, EValue: 1e-10},
		{OID: 1, Score: 300, EValue: 1e-30},
		{OID: 2, Score: 200, EValue: 1e-20},
		{OID: 5, Score: 200, EValue: 1e-20}, // tie with OID 2: OID order
	}
	merged := MergeHits(hits, 0)
	wantOrder := []int{1, 2, 5, 3}
	for i, w := range wantOrder {
		if merged[i].OID != w {
			t.Fatalf("position %d: OID %d, want %d (order %v)", i, merged[i].OID, w, merged)
		}
	}
	capped := MergeHits(append([]HitMeta(nil), hits...), 2)
	if len(capped) != 2 || capped[0].OID != 1 || capped[1].OID != 2 {
		t.Fatalf("cap failed: %v", capped)
	}
}

func TestMergeHitsDeterministicQuick(t *testing.T) {
	// Property: merging is invariant under input permutation.
	f := func(perm []byte) bool {
		base := []HitMeta{
			{OID: 0, Score: 50, EValue: 1e-5},
			{OID: 1, Score: 70, EValue: 1e-7},
			{OID: 2, Score: 70, EValue: 1e-7},
			{OID: 3, Score: 20, EValue: 1e-2},
			{OID: 4, Score: 90, EValue: 1e-9},
		}
		shuffled := append([]HitMeta(nil), base...)
		rng := rand.New(rand.NewSource(int64(len(perm))))
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		a := MergeHits(append([]HitMeta(nil), base...), 3)
		b := MergeHits(shuffled, 3)
		for i := range a {
			if a[i].OID != b[i].OID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWireQueriesRoundTrip(t *testing.T) {
	in := []*seq.Sequence{
		seq.New(seq.ProteinAlphabet, "q1", "first", "MKVLAW"),
		seq.New(seq.ProteinAlphabet, "q2", "", "WWYV"),
	}
	back, err := DecodeWireQueries(EncodeWireQueries(PackQueries(in)))
	if err != nil {
		t.Fatal(err)
	}
	out := back.Unpack()
	if len(out) != 2 {
		t.Fatalf("%d queries", len(out))
	}
	for i := range in {
		if in[i].ID != out[i].ID || in[i].Description != out[i].Description ||
			!bytes.Equal(in[i].Residues, out[i].Residues) || out[i].Alpha != seq.ProteinAlphabet {
			t.Fatalf("query %d mutated in transit", i)
		}
	}
}

func TestWireHitRoundTrip(t *testing.T) {
	res := &blast.SubjectResult{
		OID: 7, ID: "s7", Defline: "subject seven", SubjLen: 50,
		HSPs: []*blast.HSP{{
			// 12 columns: 10 subs + 1 ins + 1 del → consumes 11 query and
			// 11 subject residues.
			QueryFrom: 1, QueryTo: 12, SubjFrom: 2, SubjTo: 13,
			Score: 42, BitScore: 21.5, EValue: 1e-4,
			Trace: []blast.EditOp{blast.OpSub, blast.OpSub, blast.OpIns, blast.OpSub,
				blast.OpSub, blast.OpSub, blast.OpDel, blast.OpSub, blast.OpSub,
				blast.OpSub, blast.OpSub, blast.OpSub},
		}},
	}
	residues := []byte{1, 2, 3, 4, 5}
	var c Codec
	hit := PackHit(res, residues)
	hit.Code(&c)
	var back WireHit
	c = Decoder(c.Bytes())
	if back.Code(&c); c.Err() != nil {
		t.Fatal(c.Err())
	}
	got, gotRes := back.Unpack()
	if got.OID != 7 || got.ID != "s7" || got.SubjLen != 50 || !bytes.Equal(gotRes, residues) {
		t.Fatalf("subject metadata mutated: %+v", got)
	}
	h := got.HSPs[0]
	if h.Score != 42 || h.EValue != 1e-4 || len(h.Trace) != 12 || h.Trace[2] != blast.OpIns {
		t.Fatalf("HSP mutated: %+v", h)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMetaFromResultAndSummary(t *testing.T) {
	res := &blast.SubjectResult{
		OID: 3, ID: "id3", Defline: "d", SubjLen: 99,
		HSPs: []*blast.HSP{{Score: 77, BitScore: 33.3, EValue: 2e-8}},
	}
	m := MetaFromResult(5, res, 1234)
	if m.Worker != 5 || m.Score != 77 || m.BlockSize != 1234 || m.NumHSPs != 1 {
		t.Fatalf("meta wrong: %+v", m)
	}
	summary := SummaryResults([]HitMeta{m})
	if len(summary) != 1 || summary[0].BestScore() != 77 || summary[0].BestEValue() != 2e-8 {
		t.Fatalf("summary skeleton wrong: %+v", summary[0])
	}
}

func TestFragmentFromRecords(t *testing.T) {
	recs := []formatdb.Record{
		{OID: 10, ID: "a", Defline: "da", Residues: []byte{1, 2}},
		{OID: 11, ID: "b", Defline: "db", Residues: []byte{3}},
	}
	frag := FragmentFromRecords(recs)
	if len(frag.Subjects) != 2 || frag.Subjects[0].OID != 10 || len(frag.Subjects[0].Residues)+len(frag.Subjects[1].Residues) != 3 {
		t.Fatalf("fragment wrong: %+v", frag)
	}
}

func TestRunSequential(t *testing.T) {
	fs := vfs.MustNew(vfs.RAMDisk())
	seqs, err := workload.SynthesizeDB(workload.DBConfig{
		Kind: seq.Protein, NumSeqs: 40, MeanLen: 120, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := formatdb.Format(fs, "nr", seqs, formatdb.Config{Kind: seq.Protein, Title: "seqdb"}); err != nil {
		t.Fatal(err)
	}
	queries, err := workload.SampleQueries(seqs, workload.QueryConfig{TargetBytes: 200, MeanLen: 80, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	job := &Job{DBBase: "nr", Queries: queries, Options: blast.DefaultProteinOptions(), OutputPath: "out"}
	if err := RunSequential(fs, job); err != nil {
		t.Fatal(err)
	}
	out, err := fs.ReadFile("out")
	if err != nil {
		t.Fatal(err)
	}
	text := string(out)
	if !strings.Contains(text, "BLASTP") || !strings.Contains(text, "Query= ") {
		t.Fatalf("report malformed:\n%.200s", text)
	}
	// One header per query, in order.
	if got := strings.Count(text, "Query= "); got != len(queries) {
		t.Fatalf("%d query headers for %d queries", got, len(queries))
	}
}

func TestRunSequentialErrors(t *testing.T) {
	fs := vfs.MustNew(vfs.RAMDisk())
	job := &Job{DBBase: "missing", Queries: []*seq.Sequence{seq.New(seq.ProteinAlphabet, "q", "", "MKVL")},
		Options: blast.DefaultProteinOptions(), OutputPath: "out"}
	if err := RunSequential(fs, job); err == nil {
		t.Fatal("missing database accepted")
	}
	bad := &Job{}
	if err := RunSequential(fs, bad); err == nil {
		t.Fatal("invalid job accepted")
	}
}

func TestSummarize(t *testing.T) {
	a := simtime.NewClock()
	a.SetPhase(simtime.PhaseSearch)
	a.Advance(4)
	a.SetPhase(simtime.PhaseOutput)
	a.Advance(1)
	b := simtime.NewClock()
	b.SetPhase(simtime.PhaseSearch)
	b.Advance(3)
	b.SetPhase(simtime.PhaseOutput)
	b.Advance(3)
	b.SetPhase(simtime.PhaseIdle)
	b.Advance(2)

	r := Summarize([]*simtime.Clock{a, b}, 500)
	if r.Wall != 8 {
		t.Fatalf("wall = %g", r.Wall)
	}
	if r.Phase.Search != 4 || r.Phase.Output != 3 {
		t.Fatalf("phase maxima wrong: %+v", r.Phase)
	}
	if r.SearchFraction() != 0.5 {
		t.Fatalf("search fraction = %g", r.SearchFraction())
	}
	if r.OutputBytes != 500 {
		t.Fatalf("output bytes = %d", r.OutputBytes)
	}
	if !strings.Contains(r.String(), "search=4.0") {
		t.Fatalf("string: %s", r.String())
	}
}
