// Package metrics is the unified telemetry registry for the cluster
// simulation: concurrency-safe counters, gauges, and fixed-bucket
// histograms, labelled by rank, with a deterministic Snapshot that
// serializes to a stable JSON form.
//
// Design constraints, in order:
//
//  1. Zero virtual-time cost. Metrics never touch a simtime.Clock, so
//     instrumenting a phase cannot change its reported virtual duration —
//     the measurement must not perturb the measured system.
//  2. Determinism. The simulation is a deterministic discrete-event world;
//     its telemetry must be too. Snapshot orders every series by
//     (name, rank), so two runs of the same seed/config produce
//     byte-identical snapshots.
//  3. Nil-safety. A nil *Registry hands out nil instrument handles whose
//     methods are no-ops, so instrumented code paths never branch on
//     "is telemetry enabled".
//
// Instrument names are dotted paths whose first component is the layer
// that owns them ("mpi.", "vfs.", "mpiio.", "blast.", "engine."); the
// report package groups on that prefix.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// RankGlobal labels a series that is not attributable to a single rank
// (e.g. shared-file-system totals).
const RankGlobal = -1

// Counter is a monotone int64 instrument. Methods on a nil Counter are
// no-ops.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 instrument that can move both ways (accumulated
// seconds, current queue depth). Methods on a nil Gauge are no-ops.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Add accumulates d into the gauge.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v += d
	g.mu.Unlock()
}

// Value returns the current value (0 on a nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram counts observations into fixed buckets. Bounds are inclusive
// upper bounds in ascending order; one implicit overflow bucket catches
// everything above the last bound. Methods on a nil Histogram are no-ops.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64
	sum    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.mu.Unlock()
}

// SizeBuckets is the default byte-size bucketing shared by the message-
// and I/O-volume histograms: 256 B to 4 MiB in 16× steps.
func SizeBuckets() []float64 {
	return []float64{256, 4096, 65536, 1 << 20, 4 << 20}
}

// TimeBuckets is the default virtual-seconds bucketing used by operation-
// latency histograms (e.g. the I/O auto-tuner's per-collective cost):
// 100 µs to 10 s in 10× steps.
func TimeBuckets() []float64 {
	return []float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 10}
}

// LatencyBuckets is the log-spaced virtual-seconds bucketing used by the
// per-query end-to-end latency distributions: 100 µs to 100 s in 10× steps
// (query latencies span the whole run, not one operation).
func LatencyBuckets() []float64 {
	return []float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100}
}

// Distribution is a latency instrument that keeps BOTH log-spaced bucket
// counts (for counter-track export) and the raw samples themselves, so a
// snapshot can report exact deterministic percentiles instead of the
// bucket-upper-bound estimates a plain Histogram gives. Sample counts are
// small by construction (one observation per query), so retention is cheap.
// Methods on a nil Distribution are no-ops.
type Distribution struct {
	mu      sync.Mutex
	bounds  []float64
	counts  []int64
	samples []float64
	sum     float64
}

// Observe records one value.
func (d *Distribution) Observe(v float64) {
	if d == nil {
		return
	}
	d.mu.Lock()
	i := sort.SearchFloat64s(d.bounds, v)
	d.counts[i]++
	d.samples = append(d.samples, v)
	d.sum += v
	d.mu.Unlock()
}

type key struct {
	name string
	rank int
}

// Registry owns every instrument of one run. The zero value is not usable;
// call NewRegistry. All methods are safe for concurrent use, and safe on a
// nil receiver (returning nil no-op instruments).
type Registry struct {
	mu            sync.Mutex
	counters      map[key]*Counter
	gauges        map[key]*Gauge
	histograms    map[key]*Histogram
	distributions map[key]*Distribution
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:      make(map[key]*Counter),
		gauges:        make(map[key]*Gauge),
		histograms:    make(map[key]*Histogram),
		distributions: make(map[key]*Distribution),
	}
}

// Counter returns the counter for (name, rank), creating it on first use.
func (r *Registry) Counter(name string, rank int) *Counter {
	if r == nil {
		return nil
	}
	k := key{name, rank}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge for (name, rank), creating it on first use.
func (r *Registry) Gauge(name string, rank int) *Gauge {
	if r == nil {
		return nil
	}
	k := key{name, rank}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the histogram for (name, rank), creating it with the
// given bounds on first use (later calls reuse the original bounds).
func (r *Registry) Histogram(name string, rank int, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	k := key{name, rank}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[k]
	if !ok {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
		r.histograms[k] = h
	}
	return h
}

// Distribution returns the distribution for (name, rank), creating it with
// the given bounds on first use (later calls reuse the original bounds).
func (r *Registry) Distribution(name string, rank int, bounds []float64) *Distribution {
	if r == nil {
		return nil
	}
	k := key{name, rank}
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.distributions[k]
	if !ok {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		d = &Distribution{bounds: b, counts: make([]int64, len(b)+1)}
		r.distributions[k] = d
	}
	return d
}

// CounterPoint is one counter series in a snapshot.
type CounterPoint struct {
	Name  string `json:"name"`
	Rank  int    `json:"rank"`
	Value int64  `json:"value"`
}

// GaugePoint is one gauge series in a snapshot.
type GaugePoint struct {
	Name  string  `json:"name"`
	Rank  int     `json:"rank"`
	Value float64 `json:"value"`
}

// HistogramPoint is one histogram series in a snapshot. Counts has one
// entry per bound plus the trailing overflow bucket.
type HistogramPoint struct {
	Name   string    `json:"name"`
	Rank   int       `json:"rank"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Total  int64     `json:"total"`
	Sum    float64   `json:"sum"`
}

// DistributionPoint is one distribution series in a snapshot: the bucket
// view (one count per bound plus overflow) AND exact percentiles computed
// from the retained raw samples with the nearest-rank rule — deterministic,
// not estimates.
type DistributionPoint struct {
	Name   string    `json:"name"`
	Rank   int       `json:"rank"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Total  int64     `json:"total"`
	Sum    float64   `json:"sum"`
	P50    float64   `json:"p50"`
	P95    float64   `json:"p95"`
	P99    float64   `json:"p99"`
	Max    float64   `json:"max"`
}

// ExactQuantile returns the nearest-rank q-quantile (0 < q <= 1) of a
// sample set: the ceil(q*n)-th smallest value. The input need not be
// sorted; it is not modified. Returns 0 on an empty set.
//
// The rank is computed with a small tolerance before rounding up: when
// q*n is mathematically integral but the float64 product lands a hair
// above the integer (e.g. 0.07*100 = 7.000000000000001), a bare Ceil
// would shift the answer one rank too high. Nearest-rank demands the
// ceil(q*n)-th element under exact arithmetic, so we absorb that ulp
// noise. The tolerance (1e-9 ranks) is far below the half-unit gap
// between adjacent ranks for any sample count this system produces.
func ExactQuantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(q*float64(len(s))) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// Snapshot is a point-in-time copy of every instrument, ordered by
// (name, rank) within each kind — deterministic for a deterministic run,
// and stable under JSON marshalling.
type Snapshot struct {
	Counters      []CounterPoint      `json:"counters"`
	Gauges        []GaugePoint        `json:"gauges"`
	Histograms    []HistogramPoint    `json:"histograms"`
	Distributions []DistributionPoint `json:"distributions,omitempty"`
}

// Snapshot copies the registry's current state. Safe to call mid-run from
// any goroutine; an empty (or nil) registry yields empty, non-nil slices.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   []CounterPoint{},
		Gauges:     []GaugePoint{},
		Histograms: []HistogramPoint{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[key]*Counter, len(r.counters))
	for k, c := range r.counters {
		counters[k] = c
	}
	gauges := make(map[key]*Gauge, len(r.gauges))
	for k, g := range r.gauges {
		gauges[k] = g
	}
	histograms := make(map[key]*Histogram, len(r.histograms))
	for k, h := range r.histograms {
		histograms[k] = h
	}
	distributions := make(map[key]*Distribution, len(r.distributions))
	for k, d := range r.distributions {
		distributions[k] = d
	}
	r.mu.Unlock()

	for k, c := range counters {
		s.Counters = append(s.Counters, CounterPoint{Name: k.name, Rank: k.rank, Value: c.Value()})
	}
	for k, g := range gauges {
		s.Gauges = append(s.Gauges, GaugePoint{Name: k.name, Rank: k.rank, Value: g.Value()})
	}
	for k, h := range histograms {
		h.mu.Lock()
		p := HistogramPoint{
			Name:   k.name,
			Rank:   k.rank,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: append([]int64(nil), h.counts...),
			Sum:    h.sum,
		}
		h.mu.Unlock()
		for _, c := range p.Counts {
			p.Total += c
		}
		s.Histograms = append(s.Histograms, p)
	}
	for k, d := range distributions {
		d.mu.Lock()
		p := DistributionPoint{
			Name:   k.name,
			Rank:   k.rank,
			Bounds: append([]float64(nil), d.bounds...),
			Counts: append([]int64(nil), d.counts...),
			Total:  int64(len(d.samples)),
			Sum:    d.sum,
		}
		samples := append([]float64(nil), d.samples...)
		d.mu.Unlock()
		p.P50 = ExactQuantile(samples, 0.50)
		p.P95 = ExactQuantile(samples, 0.95)
		p.P99 = ExactQuantile(samples, 0.99)
		for _, v := range samples {
			if v > p.Max {
				p.Max = v
			}
		}
		s.Distributions = append(s.Distributions, p)
	}
	sort.Slice(s.Distributions, func(i, j int) bool {
		return lessPoint(s.Distributions[i].Name, s.Distributions[i].Rank, s.Distributions[j].Name, s.Distributions[j].Rank)
	})
	sort.Slice(s.Counters, func(i, j int) bool {
		return lessPoint(s.Counters[i].Name, s.Counters[i].Rank, s.Counters[j].Name, s.Counters[j].Rank)
	})
	sort.Slice(s.Gauges, func(i, j int) bool {
		return lessPoint(s.Gauges[i].Name, s.Gauges[i].Rank, s.Gauges[j].Name, s.Gauges[j].Rank)
	})
	sort.Slice(s.Histograms, func(i, j int) bool {
		return lessPoint(s.Histograms[i].Name, s.Histograms[i].Rank, s.Histograms[j].Name, s.Histograms[j].Rank)
	})
	return s
}

func lessPoint(an string, ar int, bn string, br int) bool {
	if an != bn {
		return an < bn
	}
	return ar < br
}

// CounterTotal sums one counter series across ranks.
func (s Snapshot) CounterTotal(name string) int64 {
	var total int64
	for _, c := range s.Counters {
		if c.Name == name {
			total += c.Value
		}
	}
	return total
}

// GaugeTotal sums one gauge series across ranks.
func (s Snapshot) GaugeTotal(name string) float64 {
	var total float64
	for _, g := range s.Gauges {
		if g.Name == name {
			total += g.Value
		}
	}
	return total
}

// HasPrefix reports whether any series name starts with the prefix — how
// the report smoke tests assert that every instrumented layer showed up.
func (s Snapshot) HasPrefix(prefix string) bool {
	match := func(name string) bool {
		return len(name) >= len(prefix) && name[:len(prefix)] == prefix
	}
	for _, c := range s.Counters {
		if match(c.Name) {
			return true
		}
	}
	for _, g := range s.Gauges {
		if match(g.Name) {
			return true
		}
	}
	for _, h := range s.Histograms {
		if match(h.Name) {
			return true
		}
	}
	for _, d := range s.Distributions {
		if match(d.Name) {
			return true
		}
	}
	return false
}
