package parblast_test

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"parblast"
)

// historyOrderEnv switches TestVirtualTimeIgnoresProcessHistory into its
// child role and says which engine the child runs first.
const historyOrderEnv = "PARBLAST_TEST_HISTORY_ORDER"

// TestVirtualTimeIgnoresProcessHistory: virtual time is a function of the
// job, not of what the process did before it. The state that once leaked —
// encoding/gob numbers types per process, in first-use order, and the first
// one is a byte shorter on the wire — cannot be reset inside a process, so
// the test re-executes its own binary twice: one child runs the mpiBLAST job
// in a fresh process, the other runs a pioBLAST job first. Both must report
// the mpiBLAST run bit for bit the same.
func TestVirtualTimeIgnoresProcessHistory(t *testing.T) {
	if order := os.Getenv(historyOrderEnv); order != "" {
		historyChild(t, order)
		return
	}
	var reports []string
	for _, order := range []string{"mpi-first", "pio-first"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestVirtualTimeIgnoresProcessHistory$", "-test.v")
		cmd.Env = append(os.Environ(), historyOrderEnv+"="+order)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s child: %v\n%s", order, err, out)
		}
		var report []string
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "mpiBLAST ") {
				report = append(report, line)
			}
		}
		if len(report) == 0 {
			t.Fatalf("%s child reported nothing:\n%s", order, out)
		}
		reports = append(reports, strings.Join(report, "\n"))
	}
	if reports[0] != reports[1] {
		t.Fatalf("the mpiBLAST run depends on what the process ran before it:\nfresh process:\n%s\nafter a pioBLAST run:\n%s", reports[0], reports[1])
	}
}

// historyChild runs the two engines in the given order and prints the
// mpiBLAST run's wall, per-rank clocks and collective bytes in exact bits.
func historyChild(t *testing.T, order string) {
	seqs, queries := buildWorkload(t)
	engines := []parblast.Engine{parblast.EngineMPIBlast, parblast.EnginePioBLAST}
	if order == "pio-first" {
		engines[0], engines[1] = engines[1], engines[0]
	}
	for _, eng := range engines {
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
		res, err := cluster.Run(eng, parblast.Search{DB: db, Queries: queries, Output: "out"})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if eng != parblast.EngineMPIBlast {
			continue
		}
		fmt.Printf("mpiBLAST wall %x collective bytes %d\n", res.Wall, res.CollectiveBytes)
		for i, c := range res.Clocks {
			fmt.Printf("mpiBLAST rank %d clock %x\n", i, c.Now())
		}
	}
}
