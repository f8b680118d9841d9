package main

import (
	"testing"
)

// capped shrinks a workload to at most maxProcs ranks for the smoke test.
func (w workload) capped(maxProcs int) workload {
	w.Procs = min(w.Procs, maxProcs)
	w.Fragments = min(w.Fragments, w.Procs-1)
	w.Physical = min(w.Physical, w.Procs-1)
	return w
}

const smokeSeqs = 120

// TestBenchmarkSmoke runs every workload end to end on a 120-sequence
// database with at most 16 ranks: one job per query set, the oracle and twin
// gates on, every declared metric present. Two workloads also run the traced
// pass, so every layer driver executes.
func TestBenchmarkSmoke(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	o := options{seed: 1, seconds: 0.01, numSeqs: smokeSeqs}
	var tr tracer
	for _, full := range workloads {
		w := full.capped(16)
		pr, err := measuredPass(&w, o, sp)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if pr.Failed != 0 || pr.Attempted < querySets {
			t.Errorf("%s: %d jobs, %d failed", w.Name, pr.Attempted, pr.Failed)
		}
		for name, v := range pr.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.Name, name, v.Value)
			}
		}
		if w.Name != "mpi_nfs_32" && w.Name != "serve_pio_16" {
			continue
		}
		tp, err := tracedPass(&w, o, sp, &tr)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if tp.Failed != 0 {
			t.Errorf("%s: %d traced jobs failed", w.Name, tp.Failed)
		}
		local := tp.Metrics["vfs.local_bytes_written"].Value
		if (w.Name == "mpi_nfs_32") != (local > 0) {
			t.Errorf("%s: vfs.local_bytes_written = %g; only the baseline copies fragments to local disks", w.Name, local)
		}
		if served := tp.Metrics["engine.batches_served"].Value; (w.Name == "serve_pio_16") != (served > 0) {
			t.Errorf("%s: engine.batches_served = %g", w.Name, served)
		}
	}
	spans := tr.rec.finish()
	byLayer := selfByLayer(spans)
	for _, layer := range []string{"bench", "parblast", "blast", "engine", "mpi", "mpiio", "vfs", "formatdb"} {
		if byLayer[layer] <= 0 {
			t.Errorf("no span self time recorded for layer %s", layer)
		}
	}
}

// TestServeShedOracle forces the admission queue to shed and checks that a
// job is verified against the oracle of the queries it admitted.
func TestServeShedOracle(t *testing.T) {
	w, err := findWorkload("serve_pio_16")
	if err != nil {
		t.Fatal(err)
	}
	tight := w.capped(8)
	tight.Rate, tight.AdmitCap = 400, 1
	p, sel, err := newPass(&tight, 1, smokeSeqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.measure(sel, smokeSeqs, 0); err != nil {
		t.Fatal(err)
	}
	shed := 0
	for _, first := range p.ver.first {
		if first != nil {
			shed += first.Stats.Shed
		}
	}
	if shed == 0 {
		t.Fatal("the tightened workload shed nothing; the test does not reach the admitted-queries oracle")
	}
	if p.failed != 0 {
		t.Errorf("%d of %d jobs failed against the oracle of their admitted queries", p.failed, len(p.jobs))
	}
}

// TestInputsExistForManySeeds guards the stated-size selection: every
// workload must find its database, query sets and arrival schedules well
// inside the draw limit on seeds it was not tuned on. (A query count off the
// most likely one once left one seed in thirty without inputs.)
func TestInputsExistForManySeeds(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, seed := range []int64{0, 1, 2, 3, 32, 33, 34, 35, 36, 1000, 1 << 20, 20260928} {
			sel, err := w.selectInputs(seed, dbSeqs)
			if err != nil {
				t.Fatal(err)
			}
			for k, s := range sel.Sets {
				if draws := s - subSeed(seed, 1+k, 0); draws > maxDraws/4 {
					t.Errorf("%s seed %d set %d: needed %d of %d draws", w.Name, seed, k, draws, maxDraws)
				}
			}
		}
	}
}
