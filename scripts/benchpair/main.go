// Command benchpair compares the benchmark of a git ref with the benchmark of
// the working tree on interleaved pairs of measured passes, and writes the
// comparison as a record.
//
// It extracts the ref with `git archive` into a temporary directory and builds
// each side's bench/ as it stands there (GOTOOLCHAIN=local GOPROXY=off), so
// each side is measured by its own benchmark. For every workload it then runs
// pairs of `--trace 0` passes, one per side on the same seed, alternating
// which side runs first, and reads each pass's closing summary line. Every
// pass measures for BENCHMARK.json's run_seconds, the length the benchmark's
// own comparison uses. Seeds count up from -seed; pass one that neither side
// has been tuned on.
//
// Usage, from the repository root:
//
//	go run ./scripts/benchpair -base HEAD -seed 7001 -out BENCH_7.json
//
// -pairs is a comma list of workload=N entries and one bare N for every
// other workload of BENCHMARK.json (0 skips them); it defaults to ten pairs
// everywhere, the fewest that can carry a gain claim (nine of ten won) and
// resolve a few per cent on serve_pio_16. For every end-to-end metric
// it prints, and writes, each side's median and quartiles and how many pairs
// the working tree won, lost and tied under the metric's direction.
//
// With -check it measures nothing: it reads the records named as arguments
// and fails if one lacks a BENCHMARK.json workload, or if, on any workload,
// the head fails a larger share of its operations than the base or a head
// median is worse than its base median by more than the metric's bound in
// BENCHMARK.json (the rule bench/run.sh -compare applies to single passes):
//
//	go run ./scripts/benchpair -check BENCH_7.json BENCH_8.json
package main

import (
	"archive/tar"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// summary is a pass's closing stdout line.
type summary struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// side is one of the two benchmarks compared.
type side struct {
	name string // "base" or "head"
	root string // the checkout it runs in
	bin  string
}

// Record is the file benchpair writes.
type Record struct {
	Base      string               `json:"base"`
	BaseRev   string               `json:"base_rev"`
	Head      string               `json:"head"`
	Seconds   float64              `json:"seconds"`
	Workloads map[string]*Workload `json:"workloads"`
}

// Workload is one workload's pairs.
type Workload struct {
	Seeds   []int64            `json:"seeds"`
	Failed  map[string]int     `json:"failed"`
	Ops     map[string]int     `json:"attempted"`
	Metrics map[string]*Metric `json:"metrics"`
}

// Metric is one end-to-end metric over a workload's pairs.
type Metric struct {
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Base   Stats  `json:"base"`
	Head   Stats  `json:"head"`
	// Won, Lost and Tied count the pairs by the head's value against the
	// base's on the same seed.
	Won  int `json:"head_won"`
	Lost int `json:"head_lost"`
	Tied int `json:"tied"`
}

// Stats are one side's values, in pair order, and their quartiles.
type Stats struct {
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run() error {
	base := flag.String("base", "HEAD", "git ref of the base side; the head side is the working tree")
	pairsFlag := flag.String("pairs", "10", "pairs per workload: workload=N entries and one bare N for the rest")
	seed := flag.Int64("seed", 7001, "first seed; pair i runs on seed+i")
	out := flag.String("out", "", "write the record to this file")
	checkOnly := flag.Bool("check", false, "check the records named as arguments against BENCHMARK.json's bounds; run nothing")
	flag.Parse()

	root, err := os.Getwd()
	if err != nil {
		return err
	}
	var sp spec
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &sp); err != nil {
		return err
	}
	if *checkOnly {
		return check(flag.Args(), sp)
	}
	plan, err := parsePairs(*pairsFlag, sp)
	if err != nil {
		return err
	}
	rev, err := exec.Command("git", "rev-parse", *base).Output()
	if err != nil {
		return fmt.Errorf("git rev-parse %s: %w", *base, err)
	}
	tmp, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	baseRoot := filepath.Join(tmp, "base")
	if err := extract(*base, baseRoot); err != nil {
		return err
	}
	sides := []*side{{name: "base", root: baseRoot}, {name: "head", root: root}}
	for _, s := range sides {
		s.bin = filepath.Join(tmp, "bench-"+s.name)
		if err := build(s); err != nil {
			return err
		}
	}

	rec := Record{Base: *base, BaseRev: strings.TrimSpace(string(rev)), Head: "working tree", Seconds: sp.RunSeconds,
		Workloads: map[string]*Workload{}}
	for _, w := range sp.Workloads {
		n := plan[w.Name]
		if n == 0 {
			continue
		}
		wr := &Workload{Failed: map[string]int{}, Ops: map[string]int{}, Metrics: map[string]*Metric{}}
		rec.Workloads[w.Name] = wr
		for _, m := range sp.EndToEnd {
			wr.Metrics[m.Name] = &Metric{Unit: m.Unit, Better: m.Better}
		}
		for i := range n {
			s := *seed + int64(i)
			wr.Seeds = append(wr.Seeds, s)
			order := sides
			if i%2 == 1 {
				order = []*side{sides[1], sides[0]}
			}
			got := map[string]summary{}
			for _, sd := range order {
				sum, err := pass(sd, w.Name, s, sp.RunSeconds, filepath.Join(tmp, "out"))
				if err != nil {
					return err
				}
				got[sd.name] = sum
				wr.Failed[sd.name] += sum.Failed
				wr.Ops[sd.name] += sum.Attempted
			}
			for name, m := range wr.Metrics {
				b, h := got["base"].Metrics[name].Value, got["head"].Metrics[name].Value
				m.Base.Values = append(m.Base.Values, b)
				m.Head.Values = append(m.Head.Values, h)
				switch {
				case b == h:
					m.Tied++
				case (h < b) == (m.Better == "lower"):
					m.Won++
				default:
					m.Lost++
				}
			}
			fmt.Fprintf(os.Stderr, "%s pair %d/%d (seed %d) done\n", w.Name, i+1, n, s)
		}
		for _, m := range wr.Metrics {
			m.Base.quartiles()
			m.Head.quartiles()
		}
		report(w.Name, wr, sp)
	}
	if *out == "" {
		return nil
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*out, append(data, '\n'), 0o644)
}

// parsePairs reads -pairs into a pair count per workload of sp.
func parsePairs(s string, sp spec) (map[string]int, error) {
	plan, rest := map[string]int{}, -1
	for _, f := range strings.Split(s, ",") {
		name, count, named := strings.Cut(strings.TrimSpace(f), "=")
		if !named {
			count = name
		}
		n, err := strconv.Atoi(count)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("-pairs: %q is not a pair count", f)
		}
		if named {
			plan[name] = n
		} else {
			rest = n
		}
	}
	known := map[string]bool{}
	for _, w := range sp.Workloads {
		known[w.Name] = true
		if _, ok := plan[w.Name]; !ok {
			plan[w.Name] = max(rest, 0)
		}
	}
	for name := range plan {
		if !known[name] {
			return nil, fmt.Errorf("-pairs: BENCHMARK.json has no workload %q", name)
		}
	}
	return plan, nil
}

// extract writes the tree of ref into dir.
func extract(ref, dir string) error {
	cmd := exec.Command("git", "archive", "--format=tar", ref)
	cmd.Stderr = os.Stderr
	stream, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	tr := tar.NewReader(stream)
	for {
		hdr, err := tr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dir, hdr.Name)
		switch hdr.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(path, 0o755)
		case tar.TypeReg:
			err = writeFile(path, tr, os.FileMode(hdr.Mode)&0o777)
		}
		if err != nil {
			return err
		}
	}
	return cmd.Wait()
}

func writeFile(path string, r io.Reader, mode os.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, mode)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// build compiles the side's benchmark from its own checkout.
func build(s *side) error {
	cmd := exec.Command("go", "-C", filepath.Join(s.root, "bench"), "build", "-o", s.bin, ".")
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off", "GOWORK=off")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building the %s benchmark: %w", s.name, err)
	}
	return nil
}

// pass runs one measured pass of the side's benchmark and returns its summary.
func pass(s *side, workload string, seed int64, seconds float64, out string) (summary, error) {
	cmd := exec.Command(s.bin, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0", "--out", filepath.Join(out, s.name))
	cmd.Dir = s.root // the benchmark reads BENCHMARK.json from its root
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var sum summary
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); jerr != nil {
		return sum, fmt.Errorf("%s %s seed %d: %v; no summary line: %v", s.name, workload, seed, err, jerr)
	}
	// A pass with failed jobs exits non-zero; its summary still counts them.
	return sum, nil
}

// quartiles fills Q1, Median and Q3 from Values, by linear interpolation
// between order statistics.
func (s *Stats) quartiles() {
	v := slices.Clone(s.Values)
	slices.Sort(v)
	at := func(q float64) float64 {
		if len(v) == 0 {
			return math.NaN()
		}
		x := q * float64(len(v)-1)
		i := int(x)
		if i+1 >= len(v) {
			return v[i]
		}
		return v[i] + (x-float64(i))*(v[i+1]-v[i])
	}
	s.Q1, s.Median, s.Q3 = at(0.25), at(0.5), at(0.75)
}

func report(name string, w *Workload, sp spec) {
	fmt.Printf("%s: %d pairs, seeds %d–%d, failed operations %d/%d (base) %d/%d (head)\n",
		name, len(w.Seeds), w.Seeds[0], w.Seeds[len(w.Seeds)-1],
		w.Failed["base"], w.Ops["base"], w.Failed["head"], w.Ops["head"])
	fmt.Printf("  %-26s %12s %12s %12s %12s %8s\n", "metric", "base median", "base IQR", "head median", "head IQR", "won")
	for _, e := range sp.EndToEnd {
		m := w.Metrics[e.Name]
		fmt.Printf("  %-26s %12.6g %12.3g %12.6g %12.3g %4d/%-3d\n", e.Name,
			m.Base.Median, m.Base.Q3-m.Base.Q1, m.Head.Median, m.Head.Q3-m.Head.Q1, m.Won, len(w.Seeds))
	}
}

// check holds each record's head to its base on every BENCHMARK.json
// workload: a missing workload fails, as does a larger share of failed
// operations or a head median worse by more than the metric's bound × |base
// median|, the bound's edge included in what passes.
func check(paths []string, sp spec) error {
	if len(paths) == 0 {
		return errors.New("-check needs at least one record")
	}
	var worse []string
	for _, path := range paths {
		var rec Record
		if err := readJSON(path, &rec); err != nil {
			return err
		}
		if len(rec.Workloads) == 0 {
			return fmt.Errorf("%s: no workloads: not a pair record", path)
		}
		for _, w := range sp.Workloads {
			wr := rec.Workloads[w.Name]
			if wr == nil {
				return fmt.Errorf("%s: no %s: a record covers every workload", path, w.Name)
			}
			// A larger share of failed operations, cross-multiplied so an
			// empty side divides nothing.
			if wr.Failed["head"]*wr.Ops["base"] > wr.Failed["base"]*wr.Ops["head"] {
				worse = append(worse, fmt.Sprintf("%s %s: failed operations %d/%d (head) against %d/%d (base)",
					path, w.Name, wr.Failed["head"], wr.Ops["head"], wr.Failed["base"], wr.Ops["base"]))
			}
			for _, e := range sp.EndToEnd {
				m := wr.Metrics[e.Name]
				if m == nil {
					return fmt.Errorf("%s: %s has no %s", path, w.Name, e.Name)
				}
				change := 0.0
				if m.Base.Median != 0 {
					change = (m.Head.Median - m.Base.Median) / math.Abs(m.Base.Median)
				}
				if e.Better == "higher" {
					change = -change
				}
				const eps = 1e-9 // the bound's edge passes, as in bench/run.sh -compare
				if change > e.Bound+eps {
					worse = append(worse, fmt.Sprintf("%s %s %s: head median %g, base %g: %+.1f%% worse, bound %g%%",
						path, w.Name, e.Name, m.Head.Median, m.Base.Median, change*100, e.Bound*100))
				}
			}
		}
		fmt.Printf("%s: %d workloads checked\n", path, len(rec.Workloads))
	}
	if len(worse) > 0 {
		return errors.New("head worse than base beyond the bound:\n" + strings.Join(worse, "\n"))
	}
	return nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
