// Command parblast-bench is the repository's benchmark: whole simulated
// jobs through the public façade for the end-to-end numbers (host time in
// calibrated seconds, allocations, and the paper's virtual clocks), and
// timed calls into each module's exported functions for the per-layer
// numbers. BENCHMARK.json at the repository root fixes the metric names,
// units, directions and bounds; README.md in this directory explains them.
//
// Run it through bench/run.sh, which builds it first:
//
//	bash bench/run.sh --workload pio_wide_62 --seed 3 --seconds 10 --trace 0
//	bash bench/run.sh                          # all workloads, both passes
//	bash bench/run.sh -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// hostProcs is the GOMAXPROCS every run uses: the reference box's core
// count, set explicitly so a bigger machine measures the same thing.
const hostProcs = 2

// specFile is the benchmark contract, read from the repository root (where
// run.sh starts the binary): metric names, units, directions and bounds.
const specFile = "BENCHMARK.json"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string
	out      string
	numSeqs  int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("parblast-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the database, the query sets and everything drawn from them")
	fs.Float64Var(&o.seconds, "seconds", 0, "measuring time per pass (default: run_seconds of the spec)")
	fs.StringVar(&o.trace, "trace", "both", "0: measured pass, end-to-end metrics; 1: traced pass, per-layer metrics; both")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory of results.json and trace.json")
	doCompare := fs.Bool("compare", false, "compare two results.json files (old new) under the spec's bounds")
	layers := fs.Bool("layers", false, "with -compare: also list per-layer changes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *doCompare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two results files: old new")
			return 2
		}
		a, errA := loadResults(fs.Arg(0))
		b, errB := loadResults(fs.Arg(1))
		if errA != nil || errB != nil {
			fmt.Fprintln(stderr, "bench:", errA, errB)
			return 2
		}
		if bad := compare(stdout, sp, a, b, *layers); bad > 0 {
			fmt.Fprintf(stdout, "%d rows worse or missing\n", bad)
			return 1
		}
		return 0
	}
	if o.seconds <= 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	if o.trace != "0" && o.trace != "1" && o.trace != "both" {
		fmt.Fprintf(stderr, "bench: -trace %q, want 0, 1 or both\n", o.trace)
		return 2
	}
	o.numSeqs = dbSeqs
	runtime.GOMAXPROCS(hostProcs)
	if err := checkWorkloads(sp); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	last, err := runAll(o, sp, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !last.Correct {
		return 1
	}
	return 0
}

// checkWorkloads requires the workload table and the spec to name the same
// workloads, in the same order.
func checkWorkloads(sp *spec) error {
	if len(sp.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].Name {
			return fmt.Errorf("BENCHMARK.json workload %d is %s, the benchmark's is %s", i, w.Name, workloads[i].Name)
		}
	}
	return nil
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runAll runs the selected workloads and passes, prints each pass's metrics,
// merges them into results.json and returns the closing summary: the one
// pass's metrics when a single pass ran, totals otherwise.
func runAll(o options, sp *spec, stdout io.Writer) (summary, error) {
	selected := workloads
	if o.workload != "all" {
		w, err := findWorkload(o.workload)
		if err != nil {
			return summary{}, err
		}
		selected = []workload{*w}
	}
	resPath := filepath.Join(o.out, "results.json")
	res, err := loadResults(resPath)
	if err != nil || res.Workloads == nil {
		res = &results{Workloads: make(map[string]*workloadResult)}
	}
	res.GOMAXPROCS, res.CalRefS = hostProcs, calRefS
	var tr tracer
	total := summary{Correct: true, Metrics: map[string]value{}}
	passes := 0
	for i := range selected {
		w := &selected[i]
		wr := res.Workloads[w.Name]
		if wr == nil {
			wr = &workloadResult{}
			res.Workloads[w.Name] = wr
		}
		if o.trace != "1" {
			pr, err := measuredPass(w, o, sp)
			if err != nil {
				return summary{}, err
			}
			wr.Measured = pr
			printPass(stdout, w.Name, "measured pass: tracing, metrics and flows off", pr, sp.EndToEnd)
			total.add(pr)
			passes++
		}
		if o.trace != "0" {
			pr, err := tracedPass(w, o, sp, &tr)
			if err != nil {
				return summary{}, err
			}
			wr.Traced = pr
			printPass(stdout, w.Name, "traced pass: in-situ jobs with emission on, and layer drivers", pr, sp.PerLayer)
			total.add(pr)
			passes++
		}
	}
	if err := writeJSON(resPath, res); err != nil {
		return summary{}, err
	}
	if o.trace != "0" {
		spans := tr.rec.finish()
		if err := writeJSON(filepath.Join(o.out, "trace.json"),
			map[string]any{"self_s_by_layer": selfByLayer(spans), "spans": spans}); err != nil {
			return summary{}, err
		}
	}
	if passes != 1 {
		total.Metrics = map[string]value{}
	}
	return total, nil
}

func (s *summary) add(pr *passResult) {
	s.Attempted += pr.Attempted
	s.Failed += pr.Failed
	s.Correct = s.Correct && pr.Failed == 0
	s.Metrics = pr.Metrics
}

// measuredPass is the --trace 0 run of one workload. A pass whose
// calibration times spread too far apart (a neighbour came or went) is
// measured once more; if the second is no calmer the pass is reported as
// disturbed, never silently.
func measuredPass(w *workload, o options, sp *spec) (*passResult, error) {
	p, sel, err := newPass(w, o.seed, o.numSeqs)
	if err != nil {
		return nil, err
	}
	if err := p.measure(sel, o.numSeqs, o.seconds); err != nil {
		return nil, err
	}
	if p.calSpread > calDisturbed {
		first := *p
		if err := p.measure(sel, o.numSeqs, o.seconds); err != nil {
			return nil, err
		}
		if first.failed > 0 || (p.failed == 0 && first.calSpread < p.calSpread) {
			*p = first // keep the calmer pass, and never drop a failure
		}
	}
	m, err := p.endToEnd()
	if err != nil {
		return nil, err
	}
	metrics, err := label(sp.EndToEnd, m)
	if err != nil {
		return nil, err
	}
	return &passResult{Seed: o.seed, Seconds: o.seconds, Attempted: len(p.jobs), Failed: p.failed,
		Disturbed: p.calSpread > calDisturbed, CalSpread: p.calSpread, Metrics: metrics, Jobs: p.jobs}, nil
}

// tracedPass is the --trace 1 run of one workload: every query set once per
// emission mode with spans around the façade calls, then the layer drivers
// for what is left of the time.
func tracedPass(w *workload, o options, sp *spec, tr *tracer) (*passResult, error) {
	steal0, ticks0, haveTicks := cpuTicks()
	start := now()
	p, _, err := newPass(w, o.seed, o.numSeqs)
	if err != nil {
		return nil, err
	}
	s, err := p.runInSitu(tr)
	if err != nil {
		return nil, err
	}
	m := s.metrics(p)
	left := max(o.seconds-(now()-start), o.seconds/3)
	dm, err := p.runDrivers(tr, s, left/driverOps)
	if err != nil {
		return nil, err
	}
	for name, v := range dm {
		m[name] = v
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["parblast.peak_heap_mb"] = float64(ms.HeapSys) / 1e6
	m["parblast.steal_frac"] = 0
	if steal1, ticks1, ok := cpuTicks(); ok && haveTicks && ticks1 > ticks0 {
		m["parblast.steal_frac"] = (steal1 - steal0) / (ticks1 - ticks0)
	}
	metrics, err := label(sp.PerLayer, m)
	if err != nil {
		return nil, err
	}
	spread := m["parblast.cal_spread"]
	return &passResult{Seed: o.seed, Seconds: o.seconds, Attempted: querySets * numModes, Failed: p.failed,
		Disturbed: spread > calDisturbed, CalSpread: spread, Metrics: metrics}, nil
}

func printPass(w io.Writer, workload, what string, pr *passResult, declared []specMetric) {
	state := ""
	if pr.Disturbed {
		state = "  DISTURBED (calibration spread above the limit: a neighbour was running)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s\n   jobs %d  failed %d  cal_spread %.3f%s\n",
		workload, pr.Seed, what, pr.Attempted, pr.Failed, pr.CalSpread, state)
	names := make([]string, 0, len(declared))
	for _, m := range declared {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := pr.Metrics[name]
		fmt.Fprintf(w, "   %-40s %16.6g %s\n", name, v.Value, v.Unit)
	}
}
