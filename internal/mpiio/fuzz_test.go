package mpiio

import (
	"testing"

	"parblast/internal/wiretest"
)

// FuzzParseHintsArtifact holds the -io-hints reader to wiretest's three
// rules: no panic, allocation linear in the input, and an artifact that
// parses survives Encode→parse unchanged.
func FuzzParseHintsArtifact(f *testing.F) {
	tn := NewTuner()
	tn.trials[trialID{key: "nfs/contig", cand: 0}] = &trialStats{
		hints: Hints{ReadStrategy: StrategyTwoPhase, SieveGap: 4096}, obs: 3, maxCost: 0.25,
	}
	tn.trials[trialID{key: "nfs/holey", cand: 1}] = &trialStats{
		hints: Hints{ReadStrategy: StrategyIndependent, CbNodes: 2}, obs: 5, maxCost: 1.5,
	}
	finalized, err := tn.Finalize().Encode()
	if err != nil {
		f.Fatal(err)
	}
	layout := wiretest.Layout{Name: "hints artifact", Sample: finalized, Decode: func(data []byte) (any, []byte, error) {
		a, err := ParseHintsArtifact(data)
		if err != nil {
			return nil, nil, err
		}
		again, err := a.Encode()
		return a, again, err
	}}
	f.Add(finalized)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"kind":"parblast-io-hints","version":1,"entries":[
		{"key":"b/contig","strategy":"two-phase","observations":1,"cost_s":1},
		{"key":"a/contig","strategy":"two-phase","observations":1,"cost_s":1}]}`))
	f.Add([]byte(`{"kind":"parblast-io-hints","version":1,"entries":[
		{"key":"a/contig","strategy":"two-phase","cb_nodes":-1,"observations":1,"cost_s":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) { wiretest.Check(t, layout, data) })
}
