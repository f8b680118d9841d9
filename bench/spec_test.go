package main

import (
	"reflect"
	"regexp"
	"testing"
)

const specPath = "../BENCHMARK.json"

func TestSpecMatchesBenchmark(t *testing.T) {
	sp, err := loadSpec(specPath) // validates the contract's limits
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp.Paths, []string{"bench"}) || sp.Command[len(sp.Command)-1] != "bench/run.sh" {
		t.Errorf("command %v, paths %v: the benchmark lives in bench/ and starts with bench/run.sh", sp.Command, sp.Paths)
	}
	if err := checkWorkloads(sp); err != nil {
		t.Error(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for i, w := range workloads {
		if !name.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
		if sp.Workloads[i].Why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json and the workload table give different reasons", w.Name)
		}
	}
	layers := map[string]bool{}
	for _, l := range []string{"parblast", "core", "mpiblast", "blast", "engine", "mpi", "mpiio", "vfs",
		"formatdb", "workload", "metrics", "trace", "report"} {
		layers[l] = true
	}
	layerOf := regexp.MustCompile(`^([a-z]+)\.`)
	for _, m := range sp.PerLayer {
		l := layerOf.FindStringSubmatch(m.Name)
		if l == nil || !layers[l[1]] {
			t.Errorf("per-layer metric %s is not named after a module", m.Name)
		}
	}
	for metric := range countSeries {
		found := false
		for _, m := range sp.PerLayer {
			found = found || m.Name == metric
		}
		if !found {
			t.Errorf("count %s is gathered but not declared", metric)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	good := func() *spec {
		sp, err := loadSpec(specPath)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	half := 0.5
	for what, breakIt := range map[string]func(*spec){
		"bound above a quarter": func(s *spec) { s.EndToEnd[1].Bound = &half },
		"name used twice":       func(s *spec) { s.PerLayer[0].Name = s.EndToEnd[0].Name },
		"bad name":              func(s *spec) { s.PerLayer[0].Name = "has space" },
		"bad unit":              func(s *spec) { s.PerLayer[0].Unit = "per second" },
		"no setup_s":            func(s *spec) { s.EndToEnd[0].Name = "prepare_s" },
		"layer with a bound":    func(s *spec) { s.PerLayer[0].Bound = s.EndToEnd[0].Bound },
		"one workload":          func(s *spec) { s.Workloads = s.Workloads[:1] },
		"long why":              func(s *spec) { s.Workloads[0].Why += string(make([]byte, 200)) },
		"run too long":          func(s *spec) { s.RunSeconds = 61 },
	} {
		sp := good()
		breakIt(sp)
		if err := sp.validate(); err == nil {
			t.Errorf("%s: accepted", what)
		}
	}
	if _, err := label(good().EndToEnd, map[string]float64{"setup_s": 1}); err == nil {
		t.Error("a declared metric that was not measured must be an error")
	}
}
