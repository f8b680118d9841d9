package experiments

// Shape tests: every qualitative claim the paper's evaluation makes must
// hold in the regenerated data. These run the actual experiments, so they
// take a few seconds each; `go test -short` skips the heavier ones.

import (
	"bytes"
	"strings"
	"testing"
)

// nonSearch is a row's wall time outside the search phase.
func nonSearch(r Row) float64 { return r.Result.Wall - r.Result.Phase.Search }

func lab() *Lab {
	l := DefaultLab()
	return &l
}

func TestTable1Shapes(t *testing.T) {
	rows, err := Table1(lab())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	mpi, pio := rows[0], rows[1]
	if mpi.Engine != "mpi" || pio.Engine != "pio" {
		t.Fatalf("row order wrong: %s %s", mpi.Engine, pio.Engine)
	}
	// Paper: identical inputs produce identical outputs.
	if mpi.OutputBytes != pio.OutputBytes {
		t.Fatalf("output sizes differ: %d vs %d", mpi.OutputBytes, pio.OutputBytes)
	}
	// Paper: pioBLAST total 307.9 s vs mpiBLAST 1354.1 s (4.4×); require a
	// clear win in the same direction.
	speedup := mpi.Result.Wall / pio.Result.Wall
	if speedup < 2.5 {
		t.Fatalf("Table 1 speedup only %.2f×, want ≥2.5×", speedup)
	}
	// Paper: mpiBLAST output (1007.2 s) dwarfs its search (318.5 s).
	if mpi.Result.Phase.Output < 2*mpi.Result.Phase.Search {
		t.Fatalf("baseline output (%.2f) should dominate search (%.2f)",
			mpi.Result.Phase.Output, mpi.Result.Phase.Search)
	}
	// Paper: pioBLAST spends 91.5%% of its time searching; require ≥75%%.
	if pio.Result.SearchFraction() < 0.75 {
		t.Fatalf("pio search share %.1f%%, want ≥75%%", pio.Result.SearchFraction()*100)
	}
	// Paper: the copy stage disappears (17.1 s → 0) and input is sub-second.
	if pio.Result.Phase.Copy != 0 {
		t.Fatal("pioBLAST has a copy phase")
	}
	if mpi.Result.Phase.Copy <= 0 {
		t.Fatal("baseline lost its copy phase")
	}
	if pio.Result.Phase.Input <= 0 || pio.Result.Phase.Input > 0.2*pio.Result.Wall {
		t.Fatalf("pio input phase %.3f out of expected band", pio.Result.Phase.Input)
	}
}

func TestMessageVolumeReduction(t *testing.T) {
	// §3.2: pioBLAST's metadata-only submissions move far fewer bytes
	// through the network than the baseline's full-alignment submissions
	// plus per-hit fetch round trips.
	rows, err := Table1(lab())
	if err != nil {
		t.Fatal(err)
	}
	mpi, pio := rows[0], rows[1]
	if pio.Result.CommBytes <= 0 || mpi.Result.CommBytes <= 0 {
		t.Fatalf("comm accounting missing: %d / %d", mpi.Result.CommBytes, pio.Result.CommBytes)
	}
	ratio := float64(mpi.Result.CommBytes) / float64(pio.Result.CommBytes)
	if ratio < 3 {
		t.Fatalf("baseline should move ≫ protocol bytes; ratio %.2f (mpi %d, pio %d)",
			ratio, mpi.Result.CommBytes, pio.Result.CommBytes)
	}
	// The shuffle volume belongs almost entirely to pioBLAST's collective
	// output (the baseline writes from the master, no shuffle).
	if pio.Result.ShuffleBytes <= mpi.Result.ShuffleBytes {
		t.Fatalf("pio shuffle bytes (%d) should exceed baseline's (%d)",
			pio.Result.ShuffleBytes, mpi.Result.ShuffleBytes)
	}
}

func TestFig1aSearchShareFalls(t *testing.T) {
	rows, err := Fig1a(lab())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: the search share falls monotonically (95.6% → 70.7%) as
	// processes increase.
	for i := 1; i < len(rows); i++ {
		if rows[i].Result.SearchFraction() >= rows[i-1].Result.SearchFraction() {
			t.Fatalf("search share not falling: %.1f%% → %.1f%% at %d procs",
				rows[i-1].Result.SearchFraction()*100,
				rows[i].Result.SearchFraction()*100, rows[i].Procs)
		}
	}
	if rows[0].Result.SearchFraction() < 0.6 {
		t.Fatalf("at 16 procs search should dominate, got %.1f%%",
			rows[0].Result.SearchFraction()*100)
	}
}

func TestFig1bFragmentCountHurts(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	rows, err := Fig1b(lab())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: overall time degrades significantly as fragments grow, and
	// both search and non-search time rise.
	for i := 1; i < len(rows); i++ {
		if rows[i].Result.Wall <= rows[i-1].Result.Wall {
			t.Fatalf("total not rising with fragments: %.2f at %d, %.2f at %d",
				rows[i-1].Result.Wall, rows[i-1].Fragments,
				rows[i].Result.Wall, rows[i].Fragments)
		}
	}
	first, last := rows[0], rows[len(rows)-1]
	if last.Result.Phase.Search <= first.Result.Phase.Search {
		t.Fatal("search time did not rise with fragment count")
	}
	if nonSearch(last) <= nonSearch(first) {
		t.Fatal("non-search time did not rise with fragment count")
	}
	// Outputs identical regardless of fragmentation.
	for _, r := range rows[1:] {
		if r.OutputBytes != rows[0].OutputBytes {
			t.Fatal("fragment count changed the output")
		}
	}
}

func TestTable2OutputScalesWithQuerySize(t *testing.T) {
	rows, err := Table2(lab())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 26K→11M, 77K→47M, 159K→96M, 289K→153M — monotone, roughly
	// proportional.
	for i := 1; i < len(rows); i++ {
		if rows[i].OutputBytes <= rows[i-1].OutputBytes {
			t.Fatalf("output not growing with query size: %d → %d",
				rows[i-1].OutputBytes, rows[i].OutputBytes)
		}
	}
	// Rough proportionality: bytes-per-query-byte within 3× across sizes.
	first := float64(rows[0].OutputBytes) / float64(rows[0].QueryBytes)
	last := float64(rows[len(rows)-1].OutputBytes) / float64(rows[len(rows)-1].QueryBytes)
	if ratio := last / first; ratio > 3 || ratio < 1.0/3 {
		t.Fatalf("output/query ratio drifted %.1f×", ratio)
	}
}

func TestFig3aShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	rows, err := Fig3a(lab())
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Row{}
	for _, r := range rows {
		byKey[r.Engine+itoa(r.Procs)] = r
	}
	// Paper: past 31 workers the baseline's growing output time offsets
	// the shrinking search time and the TOTAL grows.
	if byKey["mpi62"].Result.Wall <= byKey["mpi32"].Result.Wall {
		t.Fatalf("baseline crossover missing: %.2f at 32, %.2f at 62",
			byKey["mpi32"].Result.Wall, byKey["mpi62"].Result.Wall)
	}
	// Paper: pioBLAST keeps improving 32 → 62 (1.86× there).
	if byKey["pio62"].Result.Wall >= byKey["pio32"].Result.Wall {
		t.Fatalf("pioBLAST stopped scaling: %.2f at 32, %.2f at 62",
			byKey["pio32"].Result.Wall, byKey["pio62"].Result.Wall)
	}
	// Paper: at 61 workers the baseline searches only ~10% of the time
	// while pioBLAST stays search-dominated.
	if byKey["mpi62"].Result.SearchFraction() > 0.3 {
		t.Fatalf("baseline at 62 procs should be output-bound, search=%.1f%%",
			byKey["mpi62"].Result.SearchFraction()*100)
	}
	if byKey["pio62"].Result.SearchFraction() < 0.5 {
		t.Fatalf("pio at 62 procs should stay search-dominated, search=%.1f%%",
			byKey["pio62"].Result.SearchFraction()*100)
	}
	// pioBLAST beats the baseline at every process count.
	for _, p := range []int{4, 8, 16, 32, 62} {
		if byKey["pio"+itoa(p)].Result.Wall >= byKey["mpi"+itoa(p)].Result.Wall {
			t.Fatalf("pio not faster at %d procs", p)
		}
	}
}

func TestFig3bShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	rows, err := Fig3b(lab())
	if err != nil {
		t.Fatal(err)
	}
	var mpiRows, pioRows []Row
	for _, r := range rows {
		if r.Engine == "mpi" {
			mpiRows = append(mpiRows, r)
		} else {
			pioRows = append(pioRows, r)
		}
	}
	// Paper: both engines' totals scale roughly with output size, and
	// pioBLAST's non-search time grows far more slowly than the
	// baseline's.
	mpiGrowth := nonSearch(mpiRows[len(mpiRows)-1]) / nonSearch(mpiRows[0])
	pioGrowth := nonSearch(pioRows[len(pioRows)-1]) / nonSearch(pioRows[0])
	if pioGrowth >= mpiGrowth {
		t.Fatalf("pio non-search grew %.1f×, baseline %.1f× — wrong order", pioGrowth, mpiGrowth)
	}
	for i := range mpiRows {
		if pioRows[i].Result.Wall >= mpiRows[i].Result.Wall {
			t.Fatalf("pio not faster at output size %d", pioRows[i].QueryBytes)
		}
	}
}

func TestFig4NFSShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	rows, err := Fig4(lab())
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Row{}
	for _, r := range rows {
		byKey[r.Engine+itoa(r.Procs)] = r
	}
	// Paper: on NFS both engines' search shares deteriorate with scale,
	// pioBLAST's from 93%→64%, mpiBLAST's from 50%→14% — pio declines but
	// stays clearly above the baseline throughout.
	for _, p := range []int{4, 8, 16, 32} {
		pio := byKey["pio"+itoa(p)].Result.SearchFraction()
		mpi := byKey["mpi"+itoa(p)].Result.SearchFraction()
		if pio <= mpi {
			t.Fatalf("at %d procs pio search share (%.1f%%) not above baseline (%.1f%%)",
				p, pio*100, mpi*100)
		}
	}
	if byKey["pio32"].Result.SearchFraction() >= byKey["pio4"].Result.SearchFraction() {
		t.Fatal("pio search share should deteriorate on NFS")
	}
	// Paper: the baseline's copy stage gets much more expensive on NFS as
	// processes are added.
	if byKey["mpi32"].Result.Phase.Copy <= byKey["mpi4"].Result.Phase.Copy {
		t.Fatal("baseline copy time should grow with contention on NFS")
	}
}

func TestHeteroDynamicWins(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	rows, err := Hetero(lab())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	static, dynamic := rows[0], rows[1]
	if !strings.Contains(static.Engine, "static") || !strings.Contains(dynamic.Engine, "dynamic") {
		t.Fatalf("row labels wrong: %s %s", static.Engine, dynamic.Engine)
	}
	if dynamic.Result.Wall >= static.Result.Wall {
		t.Fatalf("dynamic (%.2f) not faster than static (%.2f) on heterogeneous cluster",
			dynamic.Result.Wall, static.Result.Wall)
	}
	if dynamic.OutputBytes != static.OutputBytes {
		t.Fatal("assignment policy changed the output")
	}
}

func TestAblationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	rows, err := Ablations(lab())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Row{}
	for _, r := range rows {
		byName[r.Label] = r
	}
	// §3.3: collective beats independent output dramatically on NFS.
	if byName["pio-indep-nfs"].Result.Phase.Output < 2*byName["pio-coll-nfs"].Result.Phase.Output {
		t.Fatalf("independent NFS output (%.2f) should be ≫ collective (%.2f)",
			byName["pio-indep-nfs"].Result.Phase.Output,
			byName["pio-coll-nfs"].Result.Phase.Output)
	}
	// §5: batching reduces (or at least never hurts) output time.
	if byName["pio-batch16"].Result.Phase.Output > byName["pio-collective"].Result.Phase.Output*1.05 {
		t.Fatal("query batching made output slower")
	}
	// §5 granularity trade-off: very fine static partitioning costs time.
	if byName["pio-frag248"].Result.Wall <= byName["pio-collective"].Result.Wall {
		t.Fatal("248 static fragments should be slower than natural partitioning")
	}
	// Early pruning never changes the bytes.
	if byName["pio-cap10"].OutputBytes != byName["pio-cap10-prune"].OutputBytes {
		t.Fatal("early pruning changed the output")
	}
	// All full-result variants agree on output size.
	if byName["pio-collective"].OutputBytes != byName["pio-independent"].OutputBytes {
		t.Fatal("output mode changed the output size")
	}
}

func TestPrepCost(t *testing.T) {
	rows, err := PrepCost(lab())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// The baseline's file count grows ~3 files per fragment; pioBLAST has
	// exactly 3 global files regardless of worker count.
	if rows[0].Files != 3*15 || rows[2].Files != 3*61 {
		t.Fatalf("fragment file counts wrong: %d / %d", rows[0].Files, rows[2].Files)
	}
	pio := rows[3]
	if pio.Files != 3 || pio.NeedsRun {
		t.Fatalf("pio global set wrong: %+v", pio)
	}
	// Fragmentation duplicates the database (global + fragments on disk).
	if rows[0].Bytes <= pio.Bytes/2 {
		t.Fatalf("fragment volume implausible: %d vs global %d", rows[0].Bytes, pio.Bytes)
	}
	var buf bytes.Buffer
	PrintPrepRows(&buf, rows)
	if !strings.Contains(buf.String(), "one global set") {
		t.Fatalf("prep table malformed:\n%s", buf.String())
	}
}

func TestPrintRowBody(t *testing.T) {
	rows, err := Table2(lab())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	printRowBody(&buf, rows)
	out := buf.String()
	if !strings.Contains(out, "srch%") {
		t.Fatalf("print format wrong:\n%s", out)
	}
	if strings.Count(out, "\n") < len(rows)+1 {
		t.Fatal("missing rows in output")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestReadPathShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	rows, err := ReadPath(lab())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Row{}
	for _, r := range rows {
		byName[r.Label] = r
	}
	indep, coll := byName["pio-indep-read"], byName["pio-coll-read"]
	// §3 read side: on the strided NFS platform, two-phase collective
	// reads must strictly reduce the input phase — aggregated sieved
	// accesses instead of per-extent latency — and with it the makespan.
	if coll.Result.Phase.Input >= indep.Result.Phase.Input {
		t.Fatalf("collective input %.4f not below independent %.4f",
			coll.Result.Phase.Input, indep.Result.Phase.Input)
	}
	if coll.Result.Phase.Input > 0.5*indep.Result.Phase.Input {
		t.Fatalf("collective input %.4f should be well under half of independent %.4f",
			coll.Result.Phase.Input, indep.Result.Phase.Input)
	}
	if coll.Result.Wall >= indep.Result.Wall {
		t.Fatalf("collective wall %.4f not below independent %.4f",
			coll.Result.Wall, indep.Result.Wall)
	}
	// Input/search overlap: prefetching shrinks both the exposed input
	// time and the makespan where the storage has spare parallelism.
	syncRow, pre := byName["pio-sync-read"], byName["pio-prefetch2"]
	if pre.Result.Phase.Input >= syncRow.Result.Phase.Input {
		t.Fatalf("prefetch input %.4f not below synchronous %.4f (nothing hidden)",
			pre.Result.Phase.Input, syncRow.Result.Phase.Input)
	}
	if pre.Result.Wall >= syncRow.Result.Wall {
		t.Fatalf("prefetch wall %.4f not below synchronous %.4f",
			pre.Result.Wall, syncRow.Result.Wall)
	}
	// The pipelined greedy protocol hides its reads too. (Walls are not
	// strictly comparable: prefetching shifts request arrival order, so
	// the greedy assignment itself changes.)
	dyn, dynPre := byName["pio-dyn"], byName["pio-dyn-prefetch"]
	if dynPre.Result.Phase.Input >= dyn.Result.Phase.Input {
		t.Fatalf("dynamic prefetch input %.4f not below synchronous %.4f",
			dynPre.Result.Phase.Input, dyn.Result.Phase.Input)
	}
	// Every variant produces the same report.
	for _, r := range rows {
		if r.OutputBytes != indep.OutputBytes {
			t.Fatalf("%s changed the output size: %d vs %d", r.Label, r.OutputBytes, indep.OutputBytes)
		}
	}
}
