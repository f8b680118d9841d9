package core

import (
	"parblast/internal/blast"
	"parblast/internal/engine"
	"parblast/internal/mpi"
	"parblast/internal/vfs"
	"parblast/internal/workload"
)

// Serving mode: the cluster boots once — database opened, virtual
// partitions read and RETAINED by the workers — and then processes an
// open-loop stream of query batches (workload.Arrivals) one at a time.
// The master runs the admission queue (engine.ServeStream): it idles until
// the next admitted batch's arrival, stamps the batch's Seq as the trace
// context, broadcasts the batch's queries, and runs exactly the same
// per-batch merge/layout/write code as the one-shot path (masterBatch.
// mergeBatch / worker.outputBatch) — which is why the streamed output file
// is byte-identical to a one-shot run over the admitted queries.
//
// Fault tolerance reuses the ready/go rendezvous per batch: a worker
// crash is detected at the next batch's rendezvous, its partitions are
// re-issued to survivors (offsets only, no data movement), and survivors
// both search them for the CURRENT batch and retain them for every later
// one. The batch's latency baseline is its ARRIVAL time, recorded before
// dispatch and never reset by recovery, so percentiles include the full
// recovery cost.

// Serve runs the persistent-cluster serving mode over an arrival stream.
// batches must come from workload.Arrivals (non-decreasing arrival times,
// contiguous in-order partition of job.Queries). admitCap bounds the
// admission queue (0 = unbounded); batches arriving while the queue is
// full are deterministically shed (drop-newest) and never dispatched.
// Batch boundaries come from the stream, so the options that set them
// (QueryBatch > 1, MemoryBudgetBytes) are rejected, as is
// DynamicAssignment: partitions must stay resident across batches.
//
// The returned RunResult's QueryLatencies hold one entry per ADMITTED
// query in dispatch order, measured from the batch's open-loop arrival to
// the query's merge completion. ServeStats carries per-batch accounting
// and the shed set.
func Serve(nodes []*vfs.Node, nprocs int, cfg mpi.Config, job *engine.Job, opts Options, batches []workload.Batch, admitCap int) (engine.RunResult, engine.ServeStats, error) {
	stream := &engine.Stream{Batches: batches, AdmitCap: admitCap}
	mp, err := plan(nodes, nprocs, cfg, job, opts, true)
	if err == nil {
		err = stream.Validate("core", len(job.Queries))
	}
	if err != nil {
		return engine.RunResult{}, engine.ServeStats{}, err
	}
	return launch(nodes, nprocs, cfg, job, opts.IOTuner, mp, stream)
}

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
