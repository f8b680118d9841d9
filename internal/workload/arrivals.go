package workload

import (
	"fmt"
	"math"
	"math/rand"

	"parblast/internal/seq"
)

// Open-loop arrival generation for the serving mode: a fixed query set is
// partitioned into batches that arrive over virtual time, independent of
// how fast the cluster drains them (open loop — the generator never waits
// for the server, which is what exposes saturation).
//
// Two invariants matter for the SLA experiments:
//
//  1. Determinism: the same (queries, config) yields the identical batch
//     sequence, byte for byte.
//  2. Exact rate scaling: with the same seed, changing Rate rescales every
//     arrival time by exactly 1/Rate and changes NOTHING else — the batch
//     partition and the burst phase pattern are rate-independent. Arrival
//     times are accumulated in unit-rate time and divided by Rate once,
//     so power-of-two rate ratios scale bit-exactly. This is what makes
//     "p99 is non-decreasing in arrival rate" a deterministic gate
//     (Lindley's recursion: shrinking every inter-arrival gap can only
//     grow queueing delay when service times are unchanged).

// Batch-size distribution names.
const (
	BatchFixed     = "fixed"     // every batch holds exactly BatchMean queries
	BatchUniform   = "uniform"   // uniform in [1, 2·BatchMean-1], mean BatchMean
	BatchGeometric = "geometric" // geometric on {1,2,...}, mean BatchMean
)

// ArrivalConfig describes an open-loop batch arrival process.
type ArrivalConfig struct {
	// Rate is the mean batch-arrival rate in batches per virtual second
	// (must be > 0).
	Rate float64
	// Burst, when > 1, turns the plain Poisson process into a two-state
	// MMPP: phases alternate between a calm state and a burst state whose
	// instantaneous rate is Burst× the calm one. A phase lasts a geometric
	// number of batches with mean burstDwell, so the phase pattern is
	// rate-independent. The two factors are normalized so the LONG-RUN
	// MEAN GAP stays 1/Rate (dwell is counted in batches, so the factors'
	// harmonic mean must be 1: calm = Burst/(2·Burst−1), burst =
	// Burst²/(2·Burst−1)). 0 or 1 selects plain Poisson.
	Burst float64
	// BatchMean is the mean queries per batch (default 1).
	BatchMean int
	// BatchDist selects the batch-size distribution: BatchFixed (default),
	// BatchUniform, or BatchGeometric.
	BatchDist string
	// Seed makes the process reproducible.
	Seed int64
}

// burstDwell is the mean number of consecutive batches per MMPP phase.
const burstDwell = 8

// maxMean bounds BatchMean. Above it the uniform draw's bound
// 2·BatchMean−1 can overflow, and 1−1/mean rounds to 1, so every geometric
// draw would divide by log(1) = 0 and clamp to 1. At or below it every draw
// is the one the configuration asks for.
const maxMean = 1 << 52

// Validate rejects unusable configurations and fills defaults into a copy.
func (c ArrivalConfig) validated() (ArrivalConfig, error) {
	if !(c.Rate > 0) || math.IsInf(c.Rate, 1) {
		return c, fmt.Errorf("workload: arrival rate must be positive and finite, got %g", c.Rate)
	}
	if c.Burst < 0 {
		return c, fmt.Errorf("workload: burst factor must be ≥ 1 (or 0 for plain Poisson), got %g", c.Burst)
	}
	if c.Burst == 0 {
		c.Burst = 1
	}
	if c.Burst < 1 {
		return c, fmt.Errorf("workload: burst factor must be ≥ 1, got %g", c.Burst)
	}
	// NaN fails every comparison above; NaN, +Inf and a factor whose
	// 2·Burst−1 overflows give a NaN or zero rate factor here.
	if calm, burst := c.rateFactors(); !(calm > 0 && burst > 0) {
		return c, fmt.Errorf("workload: burst factor must be finite with positive calm and burst rate factors, got %g (factors %g and %g)", c.Burst, calm, burst)
	}
	if c.BatchMean < 0 {
		return c, fmt.Errorf("workload: batch mean must be ≥ 1, got %d", c.BatchMean)
	}
	if c.BatchMean == 0 {
		c.BatchMean = 1
	}
	if c.BatchMean > maxMean {
		return c, fmt.Errorf("workload: batch mean must be ≤ 2^52, got %d", c.BatchMean)
	}
	switch c.BatchDist {
	case "":
		c.BatchDist = BatchFixed
	case BatchFixed, BatchUniform, BatchGeometric:
	default:
		return c, fmt.Errorf("workload: unknown batch distribution %q (want %s, %s, or %s)",
			c.BatchDist, BatchFixed, BatchUniform, BatchGeometric)
	}
	return c, nil
}

// rateFactors returns the calm and burst phases' rate factors (see Burst).
func (c ArrivalConfig) rateFactors() (calm, burst float64) {
	calm = c.Burst / (2*c.Burst - 1)
	return calm, c.Burst * calm
}

// Batch is one admitted unit of work: a contiguous slice of the query set
// with its open-loop arrival time. Seq doubles as the trace-batch id the
// engines stamp on every message the batch causes.
type Batch struct {
	// Seq is the arrival-order batch id, 0-based.
	Seq int
	// Arrival is the batch's virtual arrival time.
	Arrival float64
	// First is the index of the batch's first query in the original set.
	First int
	// Queries is the batch's query subset (a subslice of the input).
	Queries []*seq.Sequence
}

// Arrivals partitions the query set into batches and assigns open-loop
// arrival times. Every query appears in exactly one batch, in input order;
// the final batch may be short. The empty query set yields no batches.
func Arrivals(queries []*seq.Sequence, cfg ArrivalConfig) ([]Batch, error) {
	cfg, err := cfg.validated()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Two-state MMPP phase machine. rateFactor multiplies the base rate
	// in the current phase; phasesLeft counts batches until the next
	// switch. Plain Poisson is the degenerate single phase (factor 1).
	calm, burst := cfg.rateFactors()
	inBurst := false
	phaseLeft := 0
	nextDwell := func() int {
		// Geometric dwell with mean burstDwell, support {1,2,...}.
		p := 1 / float64(burstDwell)
		d := 1 + int(math.Floor(math.Log(1-float64(rng.Float64()))/math.Log(1-p)))
		if d < 1 {
			d = 1
		}
		return d
	}
	batchSize := func() int {
		switch cfg.BatchDist {
		case BatchUniform:
			return 1 + rng.Intn(2*cfg.BatchMean-1)
		case BatchGeometric:
			p := 1 / float64(cfg.BatchMean)
			n := 1 + int(math.Floor(math.Log(1-float64(rng.Float64()))/math.Log(1-p)))
			if n < 1 {
				n = 1
			}
			return n
		default:
			return cfg.BatchMean
		}
	}
	if cfg.BatchMean == 1 {
		// Degenerate distributions: all three collapse to size 1, but the
		// uniform/geometric draws above would still consume rng state (and
		// Intn(1) panics on a zero bound is avoided by 2·1-1 = 1). Pin the
		// collapse explicitly so BatchDist never changes the rng sequence
		// when it cannot change the partition.
		batchSize = func() int { return 1 }
	}

	var out []Batch
	unitTime := 0.0 // arrival time at Rate = 1; divided by Rate per batch
	for first := 0; first < len(queries); {
		if cfg.Burst > 1 {
			if phaseLeft == 0 {
				inBurst = !inBurst
				phaseLeft = nextDwell()
			}
			phaseLeft--
		}
		factor := 1.0
		if cfg.Burst > 1 {
			factor = calm
			if inBurst {
				factor = burst
			}
		}
		unitTime += rng.ExpFloat64() / factor
		n := batchSize()
		if first+n > len(queries) {
			n = len(queries) - first
		}
		out = append(out, Batch{
			Seq:     len(out),
			Arrival: unitTime / cfg.Rate,
			First:   first,
			Queries: queries[first : first+n],
		})
		first += n
	}
	return out, nil
}
