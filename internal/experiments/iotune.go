package experiments

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"parblast/internal/engine"
	"parblast/internal/mpi"
	"parblast/internal/mpiio"
	"parblast/internal/report"
	"parblast/internal/simtime"
	"parblast/internal/vfs"
)

// The iotune experiment measures the hint-driven, self-tuning MPI-IO
// stack: for every (file-system profile × access pattern) cell it runs
// the collective read once with the fixed built-in heuristics, then lets
// the auto-tuner explore the candidate slate (strategies × sieve gaps),
// finalizes the learned-hints artifact, and re-runs each cell exploiting
// the artifact. The claims under test:
//
//   - the tuned run never regresses the fixed heuristics on any cell
//     (the fixed configuration is candidate 0 of the slate, so the tuner
//     can always fall back to it), and strictly beats them on at least
//     one — the sparse pattern, where sieving buys nothing and the
//     aggregator shuffle is pure overhead;
//   - every strategy returns bytes identical to the requested view;
//   - the artifact round-trips: the tuned runs load it through the same
//     parser validatereport uses.

// ioTuneRanks is the cell size: enough ranks that aggregation, shuffle,
// and channel contention all materialize, small enough for a smoke run.
const ioTuneRanks = 4

// ioTuneProfiles are the three §4 storage profiles.
func ioTuneProfiles() []vfs.Profile {
	return []vfs.Profile{vfs.XFSLike(), vfs.NFSLike(), vfs.LocalDisk()}
}

// ioTunePatterns are the access shapes, named by the signature the
// collective plan derives for them (the tuner's learning key).
func ioTunePatterns() []string { return []string{"contig", "strided", "holey"} }

// IOTuneRow is one (profile, pattern) cell of the tuned-vs-fixed table.
type IOTuneRow struct {
	Profile string
	Pattern string
	// FixedS / TunedS are the slowest rank's clock for the run under the
	// built-in heuristics and under the learned artifact.
	FixedS float64
	TunedS float64
	// Strategy and SieveGap are the learned decision for this cell.
	Strategy string
	SieveGap int64
	// Speedup is FixedS / TunedS (1.0 = the tuner kept the heuristic).
	Speedup float64
	// Identical reports byte-identity against the requested views for
	// every run of the cell — fixed, every exploration op, and tuned.
	Identical bool
}

// SuiteRow flattens the cell into the suite artifact's row shape: the
// tuned wall, labelled with the learned strategy.
func (r IOTuneRow) SuiteRow() report.SuiteRow {
	return report.SuiteRow{
		Label:  fmt.Sprintf("%s/%s %s", r.Profile, r.Pattern, r.Strategy),
		Engine: "iotune",
		Summary: report.RunSummary{
			Wall: r.TunedS,
		},
	}
}

// ioTuneViews builds the per-rank views, expected bytes, and file
// contents for one pattern. The shapes are chosen so the collective
// plan's signature equals the pattern name:
//
//	contig:  one 96 KB block per rank, back to back;
//	strided: 2 KB records dense round-robin across the ranks;
//	holey:   2 KB records at 600 KB stride — holes wider than every
//	         profile's sieve gap, so sieving can never pay for itself.
func ioTuneViews(pattern string) ([]mpiio.View, [][]byte, []byte, error) {
	views := make([]mpiio.View, ioTuneRanks)
	want := make([][]byte, ioTuneRanks)
	var recs, recSize, stride int64
	switch pattern {
	case "contig":
		recs, recSize, stride = ioTuneRanks, 96<<10, 96<<10
	case "strided":
		recs, recSize, stride = 256, 2<<10, 2<<10
	case "holey":
		recs, recSize, stride = 24, 2<<10, 600<<10
	default:
		return nil, nil, nil, fmt.Errorf("iotune: unknown pattern %q", pattern)
	}
	total := make([]byte, (recs-1)*stride+recSize)
	for i := range total {
		total[i] = byte(i*131 + 89)
	}
	for rec := int64(0); rec < recs; rec++ {
		owner := rec % ioTuneRanks
		off := rec * stride
		views[owner].Segments = append(views[owner].Segments,
			mpiio.Segment{Offset: off, Length: recSize})
		want[owner] = append(want[owner], total[off:off+recSize]...)
	}
	return views, want, total, nil
}

// ioTuneRun executes ops collective reads of one pattern on a fresh
// cluster and returns the slowest rank's clock. Every op's bytes are
// verified against the views inside the run.
func ioTuneRun(cost simtime.CostModel, prof vfs.Profile, pattern string, ops int,
	tuner *mpiio.Tuner) (float64, error) {
	views, want, total, err := ioTuneViews(pattern)
	if err != nil {
		return 0, err
	}
	fs, err := vfs.New(prof)
	if err != nil {
		return 0, err
	}
	fs.WriteFile("db", total)
	var mu sync.Mutex
	var verifyErr error
	clocks, err := mpi.Run(ioTuneRanks, cost, func(r *mpi.Rank) error {
		f, err := mpiio.Open(r, fs, "db")
		if err != nil {
			return err
		}
		if err := f.SetView(views[r.ID()]); err != nil {
			return err
		}
		f.SetTuner(tuner)
		for op := 0; op < ops; op++ {
			got, err := f.ReadCollective()
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want[r.ID()]) {
				mu.Lock()
				verifyErr = fmt.Errorf("iotune %s/%s op %d: rank %d read %d bytes, want %d",
					prof.Name, pattern, op, r.ID(), len(got), len(want[r.ID()]))
				mu.Unlock()
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if verifyErr != nil {
		return 0, verifyErr
	}
	return engine.Summarize(clocks, 0).Wall, nil
}

// IOTune runs the tuned-vs-fixed study and returns the rows plus the
// learned-hints artifact. The regression gate is enforced here — a tuned
// cell slower than its fixed heuristic, a missing strict win, or any
// byte mismatch is an error — so callers (benchsuite, the check.sh
// smoke) inherit it.
func IOTune(lab *Lab) ([]IOTuneRow, *mpiio.HintsArtifact, error) {
	type cellID struct {
		prof    vfs.Profile
		pattern string
	}
	var cells []cellID
	for _, prof := range ioTuneProfiles() {
		for _, pattern := range ioTunePatterns() {
			cells = append(cells, cellID{prof, pattern})
		}
	}

	// Pass 1: fixed heuristics (no tuner, zero hints).
	fixed := make([]float64, len(cells))
	for i, c := range cells {
		s, err := ioTuneRun(lab.Cost, c.prof, c.pattern, 1, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("iotune fixed %s/%s: %w", c.prof.Name, c.pattern, err)
		}
		fixed[i] = s
	}

	// Pass 2: exploration — one op per slate candidate, all cells feeding
	// the one shared tuner, exactly as a real run would.
	tuner := mpiio.NewTuner()
	for _, c := range cells {
		ops := len(mpiio.TunerCandidates(c.prof, mpiio.Hints{}))
		if _, err := ioTuneRun(lab.Cost, c.prof, c.pattern, ops, tuner); err != nil {
			return nil, nil, fmt.Errorf("iotune explore %s/%s: %w", c.prof.Name, c.pattern, err)
		}
	}
	artifact := tuner.Finalize()

	// Pass 3: exploit — reload the artifact through the public parser
	// (the same round trip a second parblast run performs) and re-run
	// each cell once.
	encoded, err := artifact.Encode()
	if err != nil {
		return nil, nil, err
	}
	loaded, err := mpiio.LoadTuner(encoded)
	if err != nil {
		return nil, nil, fmt.Errorf("iotune: artifact round trip: %w", err)
	}
	learned := make(map[string]mpiio.LearnedHint, len(artifact.Entries))
	for _, e := range artifact.Entries {
		learned[e.Key] = e
	}
	rows := make([]IOTuneRow, 0, len(cells))
	strictWin := false
	for i, c := range cells {
		tuned, err := ioTuneRun(lab.Cost, c.prof, c.pattern, 1, loaded)
		if err != nil {
			return nil, nil, fmt.Errorf("iotune tuned %s/%s: %w", c.prof.Name, c.pattern, err)
		}
		e, ok := learned[c.prof.Name+"/"+c.pattern]
		if !ok {
			return rows, artifact, fmt.Errorf("iotune: artifact misses key %s/%s", c.prof.Name, c.pattern)
		}
		row := IOTuneRow{
			Profile:   c.prof.Name,
			Pattern:   c.pattern,
			FixedS:    fixed[i],
			TunedS:    tuned,
			Strategy:  e.Strategy,
			SieveGap:  e.SieveGap,
			Identical: true, // every run above byte-verified or errored out
		}
		if tuned > 0 {
			row.Speedup = fixed[i] / tuned
		}
		rows = append(rows, row)
		// The gate: tuned must never regress fixed (the fixed heuristic is
		// candidate 0, so learning it back is always available)...
		if tuned > fixed[i]*(1+1e-9) {
			return rows, artifact, fmt.Errorf("iotune: tuned run regressed on %s/%s: %.6fs > fixed %.6fs",
				c.prof.Name, c.pattern, tuned, fixed[i])
		}
		// ...and must strictly beat it somewhere.
		if tuned < fixed[i]*(1-1e-9) {
			strictWin = true
		}
	}
	if !strictWin {
		return rows, artifact, fmt.Errorf("iotune: auto-tuner never strictly beat the fixed heuristics")
	}
	return rows, artifact, nil
}

// PrintIOTuneRows renders the body of the tuned-vs-fixed table.
func PrintIOTuneRows(w io.Writer, rows []IOTuneRow) {
	fmt.Fprintf(w, "%8s %8s %11s %11s %12s %10s %8s %10s\n",
		"fs", "pattern", "fixed", "tuned", "strategy", "sieveGap", "speedup", "identical")
	for _, r := range rows {
		fmt.Fprintf(w, "%8s %8s %10.4fs %10.4fs %12s %10d %7.2fx %10v\n",
			r.Profile, r.Pattern, r.FixedS, r.TunedS, r.Strategy, r.SieveGap, r.Speedup, r.Identical)
	}
}
