package engine

import (
	"parblast/internal/blast"
	"parblast/internal/metrics"
	"parblast/internal/vfs"
)

// RecordWork folds one fragment search's kernel work counters into the
// telemetry registry under the blast.* namespace. Called by the engines
// right after a search returns — the kernel itself stays metrics-free, its
// WorkCounters are already the deterministic ground truth.
func RecordWork(reg *metrics.Registry, rank int, w blast.WorkCounters) {
	if reg == nil {
		return
	}
	reg.Counter("blast.residues_scanned", rank).Add(w.ResiduesScanned)
	reg.Counter("blast.seed_hits", rank).Add(w.SeedHits)
	reg.Counter("blast.ungapped_extensions", rank).Add(w.UngappedExtensions)
	reg.Counter("blast.gapped_extensions", rank).Add(w.GappedExtensions)
	reg.Counter("blast.hsps_found", rank).Add(w.HSPsFound)
	reg.Counter("blast.index_words", rank).Add(w.IndexWords)
}

// RecordIndexSharing books a finished job's query-bank totals: how many word
// indexes the host really built and how many requests reused one, and how
// many searches borrowed a kernel scratch context. These describe the
// simulator, not the modelled cluster — the virtual cost of indexing is
// blast.index_words, charged per (rank, fragment, query) — so they are booked
// once, after the run, under rank 0: which rank's goroutine happened to build
// an entry is a host scheduling artifact. How many contexts the bank created
// is host concurrency, different from run to run, so it stays in BankStats
// and out of the registry, whose snapshots repeat exactly.
func RecordIndexSharing(reg *metrics.Registry, st blast.BankStats) {
	if reg == nil {
		return
	}
	reg.Counter("blast.index_builds", 0).Add(st.Builds)
	reg.Counter("blast.index_reuses", 0).Add(st.Reuses)
	reg.Counter("blast.context_lends", 0).Add(st.Lends)
}

// RecordMerge counts the hits kept versus dropped by one MergeHits
// selection — the blast-layer "HSPs kept/dropped" view of result merging.
func RecordMerge(reg *metrics.Registry, rank, candidates, kept int) {
	if reg == nil {
		return
	}
	reg.Counter("blast.hsps_kept", rank).Add(int64(kept))
	reg.Counter("blast.hsps_dropped", rank).Add(int64(candidates - kept))
}

// RecordQueryLatency books one query's end-to-end latency (admission to
// result-merge completion, virtual seconds) into the engine.query_latency_s
// distribution — the serving-SLO series the report layer computes exact
// percentiles from. Nil-safe like every registry instrument.
func RecordQueryLatency(reg *metrics.Registry, rank int, seconds float64) {
	if reg == nil {
		return
	}
	reg.Distribution("engine.query_latency_s", rank, metrics.LatencyBuckets()).Observe(seconds)
}

// eachFS calls fn once per distinct file system the run could touch (the
// shared FS appears in every node).
func eachFS(nodes []*vfs.Node, fn func(*vfs.FS)) {
	seen := make(map[*vfs.FS]bool)
	for _, n := range nodes {
		for _, fs := range []*vfs.FS{n.Shared, n.Local} {
			if fs == nil || seen[fs] {
				continue
			}
			seen[fs] = true
			fn(fs)
		}
	}
}

// AddIOFaults folds the fault statistics of every file system into the
// result.
func (r *RunResult) AddIOFaults(nodes []*vfs.Node) {
	eachFS(nodes, func(fs *vfs.FS) {
		faulted, retries, backoff := fs.FaultStats()
		r.IOFaultedOps += faulted
		r.IORetries += retries
		r.IOBackoff += backoff
	})
}
