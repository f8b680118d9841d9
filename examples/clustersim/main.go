// Clustersim reruns the paper's central comparison interactively: mpiBLAST
// vs pioBLAST at several process counts on both of the paper's platforms —
// the XFS-backed Altix and the NFS-backed blade cluster — and prints the
// phase breakdowns side by side. It also verifies, like the paper asserts,
// that both engines produce byte-identical reports.
package main

import (
	"bytes"
	"fmt"
	"log"

	"parblast"
)

func main() {
	seqs, err := parblast.SynthesizeDB(parblast.DBConfig{
		Kind:       parblast.Protein,
		NumSeqs:    400,
		MeanLen:    280,
		Seed:       7,
		FamilySize: 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	queries, err := parblast.SampleQueries(seqs, parblast.QueryConfig{
		TargetBytes:  4000,
		MeanLen:      350,
		MutationRate: 0.05,
		Seed:         3,
	})
	if err != nil {
		log.Fatal(err)
	}

	platforms := []parblast.Platform{parblast.PlatformAltix, parblast.PlatformBladeCluster}
	engines := []parblast.Engine{parblast.EngineMPIBlast, parblast.EnginePioBLAST}

	fmt.Printf("%-10s %-9s %5s | %7s %7s %7s %7s | %8s %7s\n",
		"platform", "engine", "procs", "copy", "input", "search", "output", "total", "srch%")
	for _, platform := range platforms {
		for _, procs := range []int{4, 16, 32} {
			var outputs [][]byte
			for _, eng := range engines {
				cluster, spec, err := parblast.Stage(parblast.RunSpec{
					Engine: eng, Procs: procs, Platform: platform,
					Search: parblast.Search{Queries: queries, Output: "results.out"},
				}, parblast.DefaultCostModel(), func(c *parblast.Cluster) (*parblast.DB, error) {
					return c.FormatDB("nr", seqs, "clustersim nr")
				})
				if err != nil {
					log.Fatal(err)
				}
				res, _, out, err := cluster.Exec(spec)
				if err != nil {
					log.Fatal(err)
				}
				outputs = append(outputs, out)
				fmt.Printf("%-10s %-9s %5d | %7.2f %7.2f %7.2f %7.2f | %8.2f %6.1f%%\n",
					platform, eng, procs,
					res.Phase.Copy, res.Phase.Input, res.Phase.Search, res.Phase.Output,
					res.Wall, res.SearchFraction()*100)
			}
			if !bytes.Equal(outputs[0], outputs[1]) {
				log.Fatalf("ENGINE OUTPUTS DIFFER at %s/%d procs", platform, procs)
			}
		}
	}
	fmt.Println("\nall engine outputs byte-identical ✓  (as the paper states)")
}
