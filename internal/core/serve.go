package core

import (
	"parblast/internal/blast"
	"parblast/internal/engine"
	"parblast/internal/workload"
)

// Serving mode (Run with a stream): the cluster boots once — database
// opened, virtual partitions read and RETAINED by the workers — and then
// processes an open-loop stream of query batches (workload.Arrivals) one at a
// time. The master runs the admission queue (engine.ServeStream): batches
// arriving while the queue holds AdmitCap are deterministically shed
// (drop-newest); otherwise it idles until the next admitted batch's arrival,
// stamps the batch's Seq as the trace context, broadcasts the batch's
// queries, and runs exactly the same per-batch merge/layout/write code as the
// one-shot path (masterBatch.mergeBatch / worker.outputBatch) — which is why
// the streamed output file is byte-identical to a one-shot run over the
// admitted queries. Batch boundaries come from the stream, so the options
// that set them (QueryBatch > 1, MemoryBudgetBytes) are rejected, as is
// DynamicAssignment: partitions must stay resident across batches. The
// RunResult's QueryLatencies hold one entry per ADMITTED query in dispatch
// order, measured from the batch's open-loop arrival to the query's merge
// completion.
//
// Fault tolerance reuses the ready/go rendezvous per batch: a worker
// crash is detected at the next batch's rendezvous, its partitions are
// re-issued to survivors (offsets only, no data movement), and survivors
// both search them for the CURRENT batch and retain them for every later
// one. The batch's latency baseline is its ARRIVAL time, recorded before
// dispatch and never reset by recovery, so percentiles include the full
// recovery cost.

// serveStream is the master's batch driver for a serving run: one merge per
// admitted stream batch, each query's latency counted from the batch's
// arrival.
func (mb *masterBatch) serveStream(stream *engine.Stream, bank *blast.QueryBank, stats *engine.ServeStats, qlat *[]float64) error {
	return engine.ServeStream(mb.r, stream, bank, stats, func(b workload.Batch, arrival float64) error {
		if mb.meta.FT {
			// Per-batch rendezvous: detect crashes since the last batch,
			// re-issue the dead workers' partitions, and wait until the
			// survivors have absorbed and searched them for this batch.
			if err := mb.syncWorkers(nil); err != nil {
				return err
			}
		}
		return mb.mergeBatch(b.Queries, 0, len(b.Queries), func() {
			engine.SettleQuery(mb.r, arrival, qlat)
		})
	})
}

// serveStream is the worker's batch driver for a serving run: per stream
// batch, search everything resident — no reads: the warm-cluster payoff —
// then merge and write it as one batch.
func (w *worker) serveStream() error {
	for {
		queries, ok, err := engine.NextBatch(w.r)
		if err != nil || !ok {
			return err
		}
		w.begin(queries)
		if err := w.searchFrags(0); err != nil {
			return err
		}
		if w.meta.FT {
			// Per-batch rendezvous: report this batch searched; absorb any
			// re-issued partitions (retained for every later batch too)
			// and search them for THIS batch before the merge.
			err := w.rendezvous(func(extras []int) error {
				from := len(w.resident)
				if err := w.pipeline(partSource{list: extras}, 0, w.retain); err != nil {
					return err
				}
				return w.searchFrags(from)
			})
			if err != nil {
				return err
			}
		}
		if err := w.outputBatch(0, len(queries)); err != nil {
			return err
		}
	}
}
