// Command benchsuite regenerates the paper's evaluation: every table and
// figure of §4 plus the design-choice ablations and this repo's extensions,
// printed as rows of virtual-time phase breakdowns.
//
// Usage:
//
//	benchsuite [-exp all|<name>] [-dbseqs N] [-family N] [-querybytes N]
//	           [-mergescale-ranks 32,128] [-hints-out hints.json]
//	           [-report suite.json]
//
// The experiments are the entries of the catalogue, experiments.Specs():
// -exp takes any entry's name (-help and an unknown name list them, rendered
// from the catalogue), and "all" runs every entry in catalogue order. This
// command knows no experiment by name.
//
// Times are virtual seconds from the cluster simulation; see EXPERIMENTS.md
// for the paper-vs-measured comparison. -report additionally writes the
// rows as a versioned machine-readable suite artifact (internal/report).
// Host-time performance is measured by the bench/ module, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"parblast/internal/experiments"
	"parblast/internal/report"
)

// parseRankList parses a comma-separated rank-count list ("8,32").
func parseRankList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad rank count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, "+strings.Join(experiments.Names(), ", "))
	hintsOut := flag.String("hints-out", "", "write the learned-hints artifact of an experiment that learns one (iotune) to this path")
	dbSeqs := flag.Int("dbseqs", 0, "override database sequence count")
	family := flag.Int("family", 0, "override family size (database redundancy)")
	queryBytes := flag.Int("querybytes", 0, "override the default ('150 KB'-equivalent) query set volume")
	mergeRanks := flag.String("mergescale-ranks", "", "comma-separated rank counts for the mergescale sweep (default 32,128,512,1024)")
	reportPath := flag.String("report", "", "write a machine-readable JSON suite artifact to this path")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		os.Exit(1)
	}

	specs, err := experiments.Select(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		os.Exit(2)
	}

	lab := experiments.DefaultLab()
	if *dbSeqs > 0 {
		lab.DB.NumSeqs = *dbSeqs
	}
	if *family > 0 {
		lab.DB.FamilySize = *family
	}
	if *queryBytes > 0 {
		lab.QuerySizes[2] = *queryBytes
	}
	if lab.MergeRanks, err = parseRankList(*mergeRanks); err != nil {
		fail(err)
	}

	suite := report.NewSuite(*exp)
	for _, spec := range specs {
		rows, hints, err := spec.Run(&lab, os.Stdout)
		if err != nil {
			fail(fmt.Errorf("%s: %w", spec.Name, err))
		}
		if rows != nil {
			suite.Experiments = append(suite.Experiments, report.Experiment{
				Name: spec.Name, Title: spec.Title, Rows: rows,
			})
		}
		if hints != nil && *hintsOut != "" {
			data, err := hints.Encode()
			if err != nil {
				fail(err)
			}
			if err := os.WriteFile(*hintsOut, data, 0o644); err != nil {
				fail(err)
			}
			fmt.Printf("learned I/O hints: %d keys → %s\n", len(hints.Entries), *hintsOut)
		}
	}

	if *reportPath != "" {
		f, err := os.Create(*reportPath)
		if err != nil {
			fail(err)
		}
		if err := suite.WriteJSON(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("suite report → %s\n", *reportPath)
	}
}
