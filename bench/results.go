package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// passResult is what one pass over one workload reported.
type passResult struct {
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Disturbed bool             `json:"disturbed"`
	CalSpread float64          `json:"cal_spread"`
	Metrics   map[string]value `json:"metrics"`
	Jobs      []jobSample      `json:"jobs,omitempty"`
}

// workloadResult holds the two passes: measured (tracing off, the gated
// end-to-end metrics) and traced (the per-layer metrics).
type workloadResult struct {
	Measured *passResult `json:"measured,omitempty"`
	Traced   *passResult `json:"traced,omitempty"`
}

// results is bench/out/results.json. Every invocation merges its passes
// into the file, so running the workloads one at a time, as the driver
// does, builds up the same file as running them all at once.
type results struct {
	GOMAXPROCS int                        `json:"gomaxprocs"`
	CalRefS    float64                    `json:"cal_ref_s"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

func loadResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// writeJSON writes v indented to path through a temporary file, so that an
// interrupted run never leaves half a document.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Verdicts of comparing one end-to-end metric on one workload.
const (
	verdictBetter    = "better"
	verdictWithin    = "within bound"
	verdictWorse     = "worse"
	verdictDisturbed = "disturbed"
	verdictMissing   = "missing"
)

// verdict applies a metric's direction and bound to an old and a new value:
// worse when the new value is worse by more than bound × |old|, better when
// it is better by more than that, within bound otherwise (edges included).
func verdict(better string, bound, old, new float64, disturbed bool) (string, float64) {
	change := 0.0
	if old != 0 {
		change = (new - old) / math.Abs(old)
	}
	worsening := change
	if better == "higher" {
		worsening = -change
	}
	const eps = 1e-9 // (1.1-1)/1 is a hair above 0.1; the edge belongs to the bound
	switch {
	case disturbed:
		return verdictDisturbed, change
	case worsening > bound+eps:
		return verdictWorse, change
	case worsening < -bound-eps:
		return verdictBetter, change
	}
	return verdictWithin, change
}

// hostTimed are the end-to-end metrics made of host time: the ones a
// neighbour can disturb. Allocations and virtual clocks are judged even when
// a pass was disturbed.
var hostTimed = map[string]bool{
	"setup_s": true, "job_host_cal_s_p50": true, "job_host_cal_s_p75": true, "queries_per_host_cal_s": true,
}

// compare prints one row per end-to-end metric and workload, and with
// layers one per per-layer metric too (changes only: layers have no bound).
// It returns the number of rows that read worse or missing.
func compare(w io.Writer, sp *spec, a, b *results, layers bool) int {
	bad := 0
	fmt.Fprintf(w, "%-14s %-28s %14s %14s %9s  %s\n", "workload", "metric", "old", "new", "change", "verdict")
	for _, wl := range sp.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil || ra.Measured == nil || rb.Measured == nil {
			fmt.Fprintf(w, "%-14s %-28s %14s %14s %9s  %s\n", wl.Name, "(measured pass)", "-", "-", "-", verdictMissing)
			bad++
			continue
		}
		disturbed := ra.Measured.Disturbed || rb.Measured.Disturbed
		for _, m := range sp.EndToEnd {
			va, oka := ra.Measured.Metrics[m.Name]
			vb, okb := rb.Measured.Metrics[m.Name]
			if !oka || !okb {
				fmt.Fprintf(w, "%-14s %-28s %14s %14s %9s  %s\n", wl.Name, m.Name, "-", "-", "-", verdictMissing)
				bad++
				continue
			}
			v, change := verdict(m.Better, *m.Bound, va.Value, vb.Value, disturbed && hostTimed[m.Name])
			if v == verdictWorse {
				bad++
			}
			fmt.Fprintf(w, "%-14s %-28s %14.6g %14.6g %+8.2f%%  %s (bound %g%%, %s is better)\n",
				wl.Name, m.Name, va.Value, vb.Value, change*100, v, *m.Bound*100, m.Better)
		}
		if !layers || ra.Traced == nil || rb.Traced == nil {
			continue
		}
		for _, m := range sp.PerLayer {
			va, vb := ra.Traced.Metrics[m.Name], rb.Traced.Metrics[m.Name]
			_, change := verdict(m.Better, 0, va.Value, vb.Value, false)
			fmt.Fprintf(w, "%-14s %-28s %14.6g %14.6g %+8.2f%%\n", wl.Name, m.Name, va.Value, vb.Value, change*100)
		}
	}
	return bad
}
