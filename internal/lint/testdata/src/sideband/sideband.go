// Fixture for the sideband analyzer. The package is deliberately named
// core, which places it inside the runtime set: trace-context sideband
// (TraceBatch, trace.Flow records) must never flow into payload bytes or
// virtual-clock arithmetic.
package core

import (
	"parblast/internal/engine"
	"parblast/internal/mpi"
	"parblast/internal/trace"
)

// The batch tag leaks into a compute cost: traced and untraced runs
// would advance virtual time differently.
func leakCost(r *mpi.Rank) {
	b := r.TraceBatch()
	r.Compute(int64(b)) // want "virtual-time cost mpi.Compute"
	// A timeout becomes the deadline the clock advances to.
	r.RecvTimeout(1, 9, float64(b)) // want "virtual-time cost mpi.RecvTimeout"
}

// The batch tag leaks into message payload bytes.
func leakPayload(r *mpi.Rank, raw []byte) {
	stamp := append(raw, byte(r.TraceBatch()))
	r.Send(1, 9, stamp) // want "payload of mpi.Send"
}

// Flow state leaks into the deterministic output encoder.
func leakWriter(w *engine.Writer, evs []trace.Flow) {
	w.Int(int64(len(evs))) // want "payload encoder engine.Int"
}

// The batch tag encoded straight into an assignment payload.
func leakEncoder(r *mpi.Rank) []byte {
	return engine.EncodeInt(r.TraceBatch()) // want "payload encoder engine.EncodeInt"
}

// Reading the batch tag for logging is fine; the payload is untouched.
func stampOutside(r *mpi.Rank, payload []byte) {
	_ = r.TraceBatch()
	r.Send(1, 9, payload)
}

// Costs derived from payload sizes are the normal cost model.
func honestCost(r *mpi.Rank, payload []byte) {
	r.Compute(int64(len(payload)))
}

// A justified flow: the replay harness re-injects recorded batch tags by
// design, and says so.
func justifiedFlow(r *mpi.Rank) {
	b := r.TraceBatch()
	//lint:sideband replay harness re-injects the recorded batch tag deterministically
	r.Compute(int64(b))
}
