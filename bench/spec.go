package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// spec mirrors BENCHMARK.json, the one place where metric names, units,
// directions and regression bounds are fixed. The benchmark reads it at
// start-up and refuses to report a metric it does not declare or to omit
// one it does, so the file and the code cannot drift apart.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// validate applies the limits a BENCHMARK.json must stay within.
func (s *spec) validate() error {
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := make(map[string]bool)
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	metric := func(m specMetric, gated bool) error {
		if err := name(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if gated != (m.Bound != nil) {
			return fmt.Errorf("metric %s: end-to-end metrics have a bound and per-layer metrics have none", m.Name)
		}
		if gated && (*m.Bound <= 0 || *m.Bound > 0.25) {
			return fmt.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, *m.Bound)
		}
		return nil
	}
	setup := false
	for _, m := range s.EndToEnd {
		if err := metric(m, true); err != nil {
			return err
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf("end_to_end needs setup_s with unit s, better lower")
	}
	for _, m := range s.PerLayer {
		if err := metric(m, false); err != nil {
			return err
		}
	}
	return nil
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// label attaches the declared units to measured values and checks that the
// set of names is exactly the declared one.
func label(declared []specMetric, measured map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(declared))
	for _, m := range declared {
		v, ok := measured[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", m.Name)
		}
		out[m.Name] = value{v, m.Unit}
	}
	for name := range measured {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}
