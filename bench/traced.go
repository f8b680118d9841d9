package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"

	"parblast"
)

// tracer records the benchmark's own spans around every call it makes into
// a layer. Spans of one job (or one driver group) share a trace id.
type tracer struct {
	rec     recorder
	traceID string
	parent  int
}

// call runs f inside a span and returns its raw host seconds.
func (t *tracer) call(layer, name string, f func() error) (float64, error) {
	id := t.rec.begin(t.parent, t.traceID, layer, name, now())
	saved := t.parent
	t.parent = id
	err := f()
	t.parent = saved
	end := now()
	t.rec.end(id, end)
	return end - t.rec.spans[id-1].Start, err
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// The three emission modes of the in-situ pass. Each query set runs once in
// each, so that the cost of emission is measured against the same job with
// emission off.
const (
	modeOff     = iota // as in the measured pass
	modeMetrics        // Cluster.Metrics() on
	modeFull           // Metrics() and TraceFlows() on
	numModes
)

var modeNames = [numModes]string{"off", "metrics", "full"}

// facadeSteps are the untimed façade calls around a job, each with a span
// and a parblast.<step>_cal_ms metric (prepare_fragments is mpiBLAST's only;
// it reads 0 elsewhere).
var facadeSteps = []string{"new_cluster", "format_db", "prepare_fragments", "read_output"}

// inSitu holds what the traced jobs of one workload showed.
type inSitu struct {
	hostCal  [numModes][]float64 // calibrated Run/Serve seconds, per query set
	rawS     []float64           // modeOff raw seconds
	cpuCal   []float64           // modeOff CPU seconds, calibrated
	gcCycles []float64
	steps    map[string][]float64 // façade step → calibrated ms
	cals     []float64
	results  []parblast.Result // modeOff, one per query set
	counts   map[string]float64
	// The last instrumented job's artifacts, kept for the emission drivers.
	lastReg *parblast.MetricsRegistry
	lastCol *parblast.TraceCollector
	lastRes parblast.Result
}

// runInSitu runs every query set once per emission mode on fresh clusters,
// with a span around each façade call, and gathers the program's own counts
// from the registry snapshot of the instrumented jobs.
func (p *pass) runInSitu(t *tracer) (*inSitu, error) {
	s := &inSitu{steps: make(map[string][]float64), counts: make(map[string]float64)}
	// A series the program never touched on this workload reads zero.
	for name := range countSeries {
		s.counts[name] = 0
	}
	for _, name := range []string{"mpi.collective_ops", "engine.batches_shed"} {
		s.counts[name] = 0
	}
	for k := 0; k < querySets; k++ {
		for i := 0; i < numModes; i++ {
			mode := (k + i) % numModes // rotate the order so no mode always runs first
			if err := p.tracedJob(t, s, k, mode); err != nil {
				return nil, fmt.Errorf("%s: traced job set %d mode %s: %w", p.w.Name, k, modeNames[mode], err)
			}
		}
	}
	for name := range s.counts {
		s.counts[name] /= querySets
	}
	return s, nil
}

func (p *pass) tracedJob(t *tracer, s *inSitu, k, mode int) error {
	t.traceID = fmt.Sprintf("%s/set%d/%s", p.w.Name, k, modeNames[mode])
	runtime.GC()
	stepS := make(map[string]float64)
	_, err := t.call("bench", "job", func() error {
		var c *parblast.Cluster
		var db *parblast.DB
		var err error
		step := func(name string, f func() error) error {
			d, err := t.call("parblast", name, f)
			stepS[name] = d
			return err
		}
		if c, db, err = p.w.prepare(p.in, step); err != nil {
			return err
		}
		var reg *parblast.MetricsRegistry
		var col *parblast.TraceCollector
		if mode >= modeMetrics {
			reg = c.Metrics()
		}
		if mode == modeFull {
			col = c.TraceFlows()
		}
		cal := calibrate()
		s.cals = append(s.cals, cal)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuSeconds()
		var o outcome
		raw, err := t.call("parblast", "run", func() error {
			o, err = p.w.execute(c, db, p.in, k)
			return err
		})
		if err != nil {
			return err
		}
		cpu := cpuSeconds() - cpu0
		runtime.ReadMemStats(&ms1)
		var out []byte
		if err := step("read_output", func() error {
			out, err = c.ReadOutput(outputPath)
			return err
		}); err != nil {
			return err
		}
		if _, err := t.call("bench", "verify", func() error { return p.ver.check(k, o, out) }); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s traced job FAILED: %v\n", t.traceID, err)
			p.failed++
		}
		s.hostCal[mode] = append(s.hostCal[mode], calibrated(raw, cal))
		for _, name := range facadeSteps {
			s.steps[name] = append(s.steps[name], calibrated(stepS[name], cal)*1e3)
		}
		switch mode {
		case modeOff:
			s.rawS = append(s.rawS, raw)
			s.cpuCal = append(s.cpuCal, calibrated(cpu, cal))
			s.gcCycles = append(s.gcCycles, float64(ms1.NumGC-ms0.NumGC))
			s.results = append(s.results, o.Result)
		case modeMetrics:
			addCounts(s.counts, reg.Snapshot())
			s.counts["engine.batches_shed"] += float64(o.Stats.Shed)
		case modeFull:
			s.counts["trace.flow_edges_per_job"] += float64(len(col.Flows()))
			for _, rank := range col.Ranks() {
				s.counts["trace.spans_per_job"] += float64(len(col.Spans(rank)))
			}
			s.lastReg, s.lastCol, s.lastRes = reg, col, o.Result
		}
		return nil
	})
	return err
}

// countSeries maps a per-layer count metric to the registry counters that
// add up to it: an exact name, or a prefix*suffix pattern.
var countSeries = map[string]string{
	"blast.index_words":         "blast.index_words",
	"blast.residues_scanned":    "blast.residues_scanned",
	"blast.seed_hits":           "blast.seed_hits",
	"blast.ungapped_extensions": "blast.ungapped_extensions",
	"blast.gapped_extensions":   "blast.gapped_extensions",
	"blast.hsps_found":          "blast.hsps_found",
	"engine.cache_hits":         "engine.cache_hits",
	"engine.cache_misses":       "engine.cache_misses",
	"engine.batches_served":     "engine.batches_served",
	"mpi.collective_bytes":      "mpi.collective.bytes",
	"mpi.messages":              "mpi.send.*.msgs",
	"mpiio.collective_writes":   "mpiio.collective_writes",
	"mpiio.collective_reads":    "mpiio.collective_reads",
	"mpiio.agg_writes":          "mpiio.agg_writes",
	"mpiio.agg_write_bytes":     "mpiio.agg_write_bytes",
	"mpiio.shuffle_bytes":       "mpiio.shuffle_bytes",
	"mpiio.sieve_waste_bytes":   "mpiio.sieve_waste_bytes",
	"mpiio.opens":               "mpiio.opens",
	"mpiio.view_segments":       "mpiio.view_segments",
	"vfs.ops":                   "vfs.*.ops",
	"vfs.bytes_read":            "vfs.*.read_bytes",
	"vfs.bytes_written":         "vfs.*.write_bytes",
	"vfs.local_bytes_written":   "vfs.local.write_bytes",
}

func seriesMatches(pattern, name string) bool {
	prefix, suffix, wild := strings.Cut(pattern, "*")
	if !wild {
		return name == pattern
	}
	return len(name) >= len(prefix)+len(suffix) && strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix)
}

// addCounts adds one job's registry snapshot into the per-layer counts.
func addCounts(counts map[string]float64, snap parblast.MetricsSnapshot) {
	for _, c := range snap.Counters {
		for metric, pattern := range countSeries {
			if seriesMatches(pattern, c.Name) {
				counts[metric] += float64(c.Value)
			}
		}
		// Collective calls: one counter per operation kind and rank, next to
		// its ".bytes" twin and the undifferentiated byte total.
		if strings.HasPrefix(c.Name, "mpi.collective.") && !strings.HasSuffix(c.Name, "bytes") {
			counts["mpi.collective_ops"] += float64(c.Value)
		}
	}
	counts["metrics.series_per_job"] += float64(len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms) + len(snap.Distributions))
}

// metrics turns the in-situ observations into per-layer metrics.
func (s *inSitu) metrics(p *pass) map[string]float64 {
	m := make(map[string]float64)
	for name, v := range s.counts {
		m[name] = v
	}

	off := median(s.hostCal[modeOff])
	m["parblast.run_raw_s_p50"] = median(s.rawS)
	m["parblast.run_cpu_cal_s"] = median(s.cpuCal)
	m["parblast.gc_cycles_per_job"] = median(s.gcCycles)
	m["parblast.sim_overhead_x"] = off / median(p.oracleS)
	for _, name := range facadeSteps {
		m["parblast."+name+"_cal_ms"] = median(s.steps[name])
	}
	m["parblast.cal_kernel_s_p50"] = median(s.cals)
	m["parblast.cal_spread"] = spreadRatio(s.cals)
	m["engine.sequential_cal_s"] = median(p.oracleS)

	// Emission overhead: the same query set with emission on, over the same
	// set with it off (metrics) or with metrics only (trace and flows).
	var onOff, fullOn []float64
	for k := range s.hostCal[modeOff] {
		onOff = append(onOff, s.hostCal[modeMetrics][k]/s.hostCal[modeOff][k]-1)
		fullOn = append(fullOn, s.hostCal[modeFull][k]/s.hostCal[modeMetrics][k]-1)
	}
	m["metrics.on_overhead_frac"] = median(onOff)
	m["trace.flows_overhead_frac"] = median(fullOn)

	// The engine's virtual-time account, under the module that ran it; the
	// other engine's rows are zero on this workload.
	engineLayer, other := "core", "mpiblast"
	if p.w.Engine == parblast.EngineMPIBlast {
		engineLayer, other = other, engineLayer
	}
	n := float64(len(s.results))
	for _, r := range s.results {
		for name, v := range map[string]float64{
			"virt_copy_s": r.Phase.Copy, "virt_input_s": r.Phase.Input, "virt_search_s": r.Phase.Search,
			"virt_output_s": r.Phase.Output, "virt_other_s": r.Phase.Other,
			"comm_bytes": float64(r.CommBytes), "shuffle_bytes": float64(r.ShuffleBytes),
			"collective_bytes": float64(r.CollectiveBytes), "comm_messages": float64(r.CommMessages),
			"output_bytes": float64(r.OutputBytes),
		} {
			m[engineLayer+"."+name] += v / n
			m[other+"."+name] += 0
		}
	}
	return m
}
