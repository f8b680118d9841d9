// Command parblastlint runs the project's invariant-lint suite: typed
// static analyzers that mechanically enforce the part of the simulator's
// determinism contract no single run can show (no wall clock, seeded
// randomness only, no map-order leaks into output, clock-neutral telemetry,
// fenced concurrency). Unmatched collectives and unreceived messages fail
// the run that reaches them, named by internal/mpi, and trace context,
// which exists only while traced, is held to bytes and clocks by
// internal/mpi's traced-vs-untraced test. See internal/lint and DESIGN.md
// §12.
//
// Usage:
//
//	parblastlint [-json] [packages...]
//
// Packages default to ./... of the enclosing module. Named packages are
// analysed against the whole module and only their findings are printed,
// so a subset run reports exactly what ./... reports there. Every analyzer
// always runs; the one way to accept a finding is a //lint:<name> <reason>
// directive at the site. The exit status is 0 when there are no findings,
// 1 when there are, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"parblast/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	flag.Parse()

	loader, err := lint.NewLoader()
	if err != nil {
		fatal(err)
	}
	diags, err := lint.Analyze(loader, flag.Args()...)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, diags); err != nil {
			fatal(err)
		}
	} else {
		lint.WriteText(os.Stdout, diags)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "parblastlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "parblastlint:", err)
	os.Exit(2)
}
