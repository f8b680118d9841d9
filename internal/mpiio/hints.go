// MPI-IO hints: the ROMIO-style info object that lets callers — or the
// auto-tuner — steer the collective plan instead of the layer's built-in
// heuristics. Mirrors the real hint names (cb_nodes, cb_buffer_size,
// romio_ds_* sieve control) on the simulated stack.
package mpiio

import (
	"fmt"

	"parblast/internal/vfs"
)

// Strategy selects how ReadCollective moves the bytes.
type Strategy int

const (
	// StrategyTwoPhase is the ROMIO default: aggregators issue large
	// sieved sequential reads (holes below the sieve gap are transferred
	// as waste) and shuffle the pieces to the requesters.
	StrategyTwoPhase Strategy = iota
	// StrategyListIO keeps the aggregator shuffle but issues one access
	// per coalesced request run — no hole is ever transferred, so sieve
	// waste is zero at the price of more operations (the Thakur/Gropp/
	// Lusk data-sieving-vs-list-I/O crossover).
	StrategyListIO
	// StrategyIndependent skips aggregation entirely: every rank reads
	// its own view segments directly. No shuffle traffic, full storage
	// parallelism — the right choice for contiguous views on a
	// many-channel file system.
	StrategyIndependent
)

// String returns the CLI/JSON spelling of the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyTwoPhase:
		return "two-phase"
	case StrategyListIO:
		return "list-io"
	case StrategyIndependent:
		return "independent"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// slug is the metric-name spelling (dots and dashes are separators in
// instrument names, so strategies use underscores there).
func (s Strategy) slug() string {
	switch s {
	case StrategyListIO:
		return "list_io"
	case StrategyIndependent:
		return "independent"
	}
	return "two_phase"
}

// ParseStrategy parses the CLI/JSON spelling ("" = two-phase default).
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "", "two-phase":
		return StrategyTwoPhase, nil
	case "list-io":
		return StrategyListIO, nil
	case "independent":
		return StrategyIndependent, nil
	}
	return 0, fmt.Errorf("mpiio: unknown read strategy %q (want two-phase, list-io, or independent)", s)
}

// valid reports whether s is a known strategy.
func (s Strategy) valid() bool {
	return s == StrategyTwoPhase || s == StrategyListIO || s == StrategyIndependent
}

// DefaultCbBufferSize is the collective-buffer size assumed when the hint
// is unset — ROMIO's classic 4 MiB default. It bounds the sieve gap: a
// sieved run never reads through a hole larger than the buffer an
// aggregator is willing to stage.
const DefaultCbBufferSize = 4 << 20

// Hints is the per-file MPI-IO info object. The zero value means "derive
// everything from the file-system profile" and reproduces the layer's
// previous fixed heuristics. Hints are consulted by the collective plan,
// so — like a real MPI info object — every rank of a collective must set
// the same hints on its handle.
type Hints struct {
	// CbNodes caps the number of aggregator ranks (cb_nodes). 0 derives
	// it from the file-system profile's channel count. The plan always
	// clamps to the live participant count and the aggregate extent.
	CbNodes int
	// CbBufferSize is the collective staging-buffer size in bytes
	// (cb_buffer_size). 0 = DefaultCbBufferSize. It caps the sieve gap.
	CbBufferSize int64
	// SieveGap overrides the data-sieving hole threshold in bytes. 0
	// derives latency×bandwidth from the profile. The effective gap is
	// always floored at 1 and capped at the collective buffer size.
	SieveGap int64
	// ReadStrategy selects how ReadCollective moves the bytes.
	ReadStrategy Strategy
}

// Validate rejects unusable hints.
func (h Hints) Validate() error {
	if h.CbNodes < 0 {
		return fmt.Errorf("mpiio: negative cb_nodes %d", h.CbNodes)
	}
	if h.CbBufferSize < 0 {
		return fmt.Errorf("mpiio: negative cb_buffer_size %d", h.CbBufferSize)
	}
	if h.SieveGap < 0 {
		return fmt.Errorf("mpiio: negative sieve_gap %d", h.SieveGap)
	}
	if !h.ReadStrategy.valid() {
		return fmt.Errorf("mpiio: unknown read strategy %d", int(h.ReadStrategy))
	}
	return nil
}

// EffectiveCbBufferSize resolves the collective buffer size hint.
func (h Hints) EffectiveCbBufferSize() int64 {
	if h.CbBufferSize > 0 {
		return h.CbBufferSize
	}
	return DefaultCbBufferSize
}

// EffectiveSieveGap resolves the data-sieving hole threshold against a
// file-system profile: the explicit hint when set, otherwise the profile's
// seek-equivalent byte volume (latency×bandwidth — the break-even hole
// size). The result is floored at 1 — near-zero-latency profiles truncate
// the product to 0, which would otherwise disable coalescing of abutting
// requests — and capped at the collective buffer size, so high-bandwidth
// profiles cannot demand unbounded staging buffers.
func (h Hints) EffectiveSieveGap(p vfs.Profile) int64 {
	gap := h.SieveGap
	if gap <= 0 {
		gap = p.SeekEquivalentBytes()
	}
	if gap < 1 {
		gap = 1
	}
	if buf := h.EffectiveCbBufferSize(); gap > buf {
		gap = buf
	}
	return gap
}

// SetHints installs the file's MPI-IO hints. Like SetView, it is local:
// the hints take effect at the next collective. All ranks of a collective
// must agree on the hints they set.
func (f *File) SetHints(h Hints) error {
	if err := h.Validate(); err != nil {
		return err
	}
	f.hints = h
	return nil
}

// SetTuner attaches an auto-tuner to the handle: subsequent collective
// reads consult it for the strategy/gap decision and feed their measured
// virtual cost back. A nil tuner restores plain hint/heuristic behavior.
// The same tuner object must be attached on every rank of the collective
// (it is shared in-process, like the file system itself).
func (f *File) SetTuner(t *Tuner) { f.tuner = t }
