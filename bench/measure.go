package main

import (
	"fmt"
	"os"
	"runtime"
)

// jobSample is what the measured pass keeps of one job.
type jobSample struct {
	Set     int     `json:"set"`
	RawS    float64 `json:"raw_s"`
	CalS    float64 `json:"cal_kernel_s"` // calibration kernel just before the job, raw seconds
	SetupS  float64 `json:"setup_raw_s"`
	AllocB  uint64  `json:"alloc_bytes"`
	Mallocs uint64  `json:"mallocs"`
	Failed  bool    `json:"failed,omitempty"`
	calS    float64 // mean of the calibration samples before and after the job
}

// pass is one measured pass over a workload: tracing, metrics and flows
// off, jobs back to back (closed loop, one client) until the time is up.
type pass struct {
	w         *workload
	in        *inputs
	ver       *verifier
	jobs      []jobSample
	failed    int
	oracleS   []float64 // calibrated seconds of each sequential oracle run
	calSpread float64
}

// newPass selects and builds the inputs of a workload and computes the
// byte oracle of every query set.
func newPass(w *workload, seed int64, numSeqs int) (*pass, inputSeeds, error) {
	sel, err := w.selectInputs(seed, numSeqs)
	if err != nil {
		return nil, sel, err
	}
	in, err := w.buildInputs(sel, numSeqs)
	if err != nil {
		return nil, sel, err
	}
	p := &pass{w: w, in: in, ver: &verifier{w: w, in: in}}
	for k := range in.sets {
		cal := calibrate()
		t := now()
		if p.ver.oracles[k], err = sequentialOutput(in.seqs, in.sets[k]); err != nil {
			return nil, sel, fmt.Errorf("%s: oracle of query set %d: %w", w.Name, k, err)
		}
		p.oracleS = append(p.oracleS, calibrated(now()-t, cal))
	}
	return p, sel, nil
}

// measure runs jobs until seconds have passed and every query set has run
// at least once. Each iteration repeats the whole set-up (inputs
// from the selected seeds, a fresh cluster, the formatted database), runs
// the calibration kernel, times Run/Serve alone, and verifies the output.
// It replaces the samples of an earlier call.
func (p *pass) measure(sel inputSeeds, numSeqs int, seconds float64) error {
	var before, after runtime.MemStats
	p.jobs, p.failed = nil, 0
	deadline := now() + seconds
	for j := 0; j < querySets || now() < deadline; j++ {
		k := j % querySets
		runtime.GC()
		t := now()
		in, err := p.w.buildInputs(sel, numSeqs)
		if err != nil {
			return err
		}
		c, db, err := p.w.prepare(in, direct)
		if err != nil {
			return err
		}
		s := jobSample{Set: k, SetupS: now() - t}
		s.CalS = calibrate()
		runtime.ReadMemStats(&before)
		t = now()
		o, err := p.w.execute(c, db, in, k)
		s.RawS = now() - t
		runtime.ReadMemStats(&after)
		s.AllocB = after.TotalAlloc - before.TotalAlloc
		s.Mallocs = after.Mallocs - before.Mallocs
		if err == nil {
			var out []byte
			if out, err = c.ReadOutput(outputPath); err == nil {
				err = p.ver.check(k, o, out)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s job %d FAILED: %v\n", p.w.Name, j, err)
			s.Failed = true
			p.failed++
		}
		p.jobs = append(p.jobs, s)
	}
	// A job is scaled by the calibration samples on both sides of it: its own
	// and the next job's (one more is taken after the last job). Over repeated
	// runs this held the median a fifth steadier than the leading sample alone.
	cals := []float64{}
	for _, s := range p.jobs {
		cals = append(cals, s.CalS)
	}
	cals = append(cals, calibrate())
	for j := range p.jobs {
		p.jobs[j].calS = (cals[j] + cals[j+1]) / 2
	}
	p.calSpread = spreadRatio(cals)
	return nil
}

// endToEnd computes the gated metrics of a finished pass.
func (p *pass) endToEnd() (map[string]float64, error) {
	var host, setup []float64
	var perSet [querySets][]float64
	var allocMB, mallocs [querySets][]float64
	for _, s := range p.jobs {
		hostS := calibrated(s.RawS, s.calS)
		host = append(host, hostS)
		setup = append(setup, calibrated(s.SetupS, s.calS))
		perSet[s.Set] = append(perSet[s.Set], hostS)
		allocMB[s.Set] = append(allocMB[s.Set], float64(s.AllocB)/1e6)
		mallocs[s.Set] = append(mallocs[s.Set], float64(s.Mallocs))
	}
	p75, err := percentile(host, 75)
	if err != nil {
		// Too few jobs fit in the run for a p75 with ten samples beyond it;
		// report the value anyway, flagged, so the run still has all metrics.
		fmt.Fprintf(os.Stderr, "bench: %s: %v; reporting it from %d jobs\n", p.w.Name, err, len(host))
		p75 = quantile(host, 75)
	}
	var queries, setMedians, setAlloc, setMallocs float64
	var walls, fracs, lats []float64
	for k := range perSet {
		first := p.ver.first[k]
		if first == nil {
			return nil, fmt.Errorf("%s: query set %d has no verified job", p.w.Name, k)
		}
		queries += float64(len(first.Result.QueryLatencies))
		setMedians += median(perSet[k])
		setAlloc += mean(allocMB[k])
		setMallocs += mean(mallocs[k])
		walls = append(walls, first.Result.Wall)
		fracs = append(fracs, first.Result.SearchFraction())
		lats = append(lats, first.Result.QueryLatencies...)
	}
	return map[string]float64{
		"setup_s":                  median(setup),
		"job_host_cal_s_p50":       median(host),
		"job_host_cal_s_p75":       p75,
		"queries_per_host_cal_s":   queries / setMedians,
		"alloc_mb_per_job":         setAlloc / querySets,
		"allocs_per_job":           setMallocs / querySets,
		"virt_wall_s":              median(walls),
		"virt_search_frac":         median(fracs),
		"virt_query_latency_p50_s": quantile(lats, 50),
		"virt_query_latency_p90_s": quantile(lats, 90),
	}, nil
}
