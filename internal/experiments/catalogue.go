package experiments

import (
	"fmt"
	"io"
	"strings"

	"parblast/internal/mpiio"
	"parblast/internal/report"
)

// Spec is one entry of the experiment catalogue: what the experiment is
// called on the command line, the title its table prints and its artifact
// entry carries, and how it runs.
type Spec struct {
	Name  string
	Title string
	// Run executes the experiment on the lab and prints its table, under
	// the title, to w. rows are its rows in the suite artifact's shape: nil
	// when it contributes no artifact entry (prepcost counts files, it
	// measures no run). hints is the learned-hints artifact of the one
	// experiment that learns any (iotune): nil elsewhere.
	Run func(lab *Lab, w io.Writer) (rows []report.SuiteRow, hints *mpiio.HintsArtifact, err error)
}

// Specs returns the catalogue: every table and figure, in presentation
// order. It is the one list of experiments — cmd/benchsuite's -exp names and
// usage text, the suite artifact's entries and the documented command lines
// (TestDocumentedNamesResolve) all come from here, so a new experiment is
// one line below plus its row type.
func Specs() []Spec {
	return []Spec{
		rowTable("fig1a", "Figure 1(a): mpiBLAST time distribution", Fig1a),
		rowTable("fig1b", "Figure 1(b): fragment-count sensitivity (32 procs)", Fig1b),
		rowTable("table1", "Table 1: phase breakdown at 32 processes", Table1),
		rowTable("table2", "Table 2: query size vs output size", Table2),
		rowTable("fig3a", "Figure 3(a): node scalability (Altix/XFS)", Fig3a),
		rowTable("fig3b", "Figure 3(b): output scalability at 62 processes", Fig3b),
		rowTable("fig4", "Figure 4: node scalability (blade/NFS)", Fig4),
		rowTable("ablations", "Ablations: output mode, pruning, batching, granularity", Ablations),
		rowTable("readpath", "Read path: collective input reads + input/search overlap", ReadPath),
		rowTable("hetero", "Heterogeneous cluster: static vs dynamic partitioning", Hetero),
		// The experiments below have their own row shapes (recovery
		// overheads, the master's output bucket, fixed vs tuned walls,
		// percentile blocks, admission accounting — not phase breakdowns),
		// so each brings its own table body and flattener.
		table("prepcost", "Operational overhead (§3.1): pre-partitioning vs global files",
			PrepCost, PrintPrepRows, nil),
		table("faults", "Fault tolerance: worker crash at mid-search + transient I/O errors",
			Faults, PrintFaultRows, FaultRow.SuiteRow),
		table("mergescale", "Merge scalability: flat master-ingest vs hierarchical tree merge",
			func(lab *Lab) ([]MergeScaleRow, error) { return MergeScale(lab, lab.MergeRanks) },
			PrintMergeScaleRows, MergeScaleRow.SuiteRow),
		ioTuneTable("iotune", "I/O auto-tuning: learned hints vs fixed heuristics"),
		table("latency", "Per-query latency and exact critical path (ranks × protocols)",
			Latency, PrintLatencyRows, LatencyRow.SuiteRow),
		// Every sla row is byte-identity-gated against a one-shot run over
		// its admitted queries before it is reported.
		table("sla", "Online serving: latency vs arrival rate, admission shedding (open-loop streams)",
			SLA, PrintSLARows, SLARow.SuiteRow),
	}
}

// Names lists the catalogue's names in presentation order.
func Names() []string {
	var names []string
	for _, s := range Specs() {
		names = append(names, s.Name)
	}
	return names
}

// Select resolves an -exp argument against the catalogue: one entry by
// name, or every entry for "all". An unknown name's error lists the names.
func Select(name string) ([]Spec, error) {
	specs := Specs()
	if name == "all" {
		return specs, nil
	}
	for i, s := range specs {
		if s.Name == name {
			return specs[i : i+1], nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (want all, %s)", name, strings.Join(Names(), ", "))
}

// table builds the entry of an experiment with row type R: run it, print
// body under the title, flatten each row with flat (nil = no artifact
// entry).
func table[R any](name, title string, run func(*Lab) ([]R, error),
	body func(io.Writer, []R), flat func(R) report.SuiteRow) Spec {
	return Spec{name, title, func(lab *Lab, w io.Writer) ([]report.SuiteRow, *mpiio.HintsArtifact, error) {
		rows, err := run(lab)
		out, err := present(w, title, rows, err, body, flat)
		return out, nil, err
	}}
}

// rowTable is table for the experiments that sweep engine runs.
func rowTable(name, title string, run func(*Lab) ([]Row, error)) Spec {
	return table(name, title, run, printRowBody, Row.SuiteRow)
}

// ioTuneTable is table for the experiment that also hands back what it
// learned. IOTune enforces the regression gate itself (tuned ≤ fixed
// everywhere, strict win somewhere, byte-identity always).
func ioTuneTable(name, title string) Spec {
	return Spec{name, title, func(lab *Lab, w io.Writer) ([]report.SuiteRow, *mpiio.HintsArtifact, error) {
		rows, hints, err := IOTune(lab)
		out, err := present(w, title, rows, err, PrintIOTuneRows, IOTuneRow.SuiteRow)
		return out, hints, err
	}}
}

// present prints the rows that came back under the title and flattens them.
// Rows print even when the run returned an error with them (iotune's gate
// tripping), so the offending row is visible.
func present[R any](w io.Writer, title string, rows []R, err error,
	body func(io.Writer, []R), flat func(R) report.SuiteRow) ([]report.SuiteRow, error) {
	if err == nil || len(rows) > 0 {
		printTitle(w, title)
		body(w, rows)
	}
	if err != nil || flat == nil {
		return nil, err
	}
	out := make([]report.SuiteRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, flat(r))
	}
	return out, nil
}
