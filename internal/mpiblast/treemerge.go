// Hierarchical tree merge for the baseline engine: instead of streaming
// every (query, fragment) result through the master during the search
// phase — the §3.2 serialization the mergescale experiment measures on
// this engine — workers hold their results locally, pre-merge them to the
// per-query top-k with the master's exact selection rule, and fold them
// up a k-ary reduction tree. The master ingests O(fanout·log N) bundles
// on its clock instead of O(fragments·queries) messages, then renders and
// writes the output exactly as the flat baseline does (including the
// serial per-hit residue fetch, which stays the baseline's documented
// bottleneck — this path fixes the MERGE, not the fetch).
package mpiblast

import (
	"fmt"

	"parblast/internal/blast"
	"parblast/internal/engine"
	"parblast/internal/mpi"
)

// treeHit is one worker-owned hit riding the reduction tree: the wire
// alignment plus the owning worker, so the master can route the residue
// fetch after the merge.
type treeHit struct {
	Worker int
	Hit    engine.WireHit
}

// treeResults is one member's bundle payload: per-query work counters and
// pre-merged hit lists, indexed by query.
type treeResults struct {
	Work []blast.WorkCounters
	Hits [][]treeHit
}

func (t *treeResults) code(c *engine.Codec) *engine.Codec {
	engine.Size(c, &t.Work, engine.Len(c, &t.Hits))
	for q := range t.Hits {
		engine.CodeWork(c, &t.Work[q])
		for i := range engine.Len(c, &t.Hits[q]) {
			th := &t.Hits[q][i]
			c.Int(&th.Worker)
			th.Hit.Code(c)
		}
	}
	return c
}

func (t *treeResults) encode() []byte { return t.code(new(engine.Codec)).Bytes() }

// sortCapTreeHits applies the global selection rule, engine.MergeHits, to
// one query's hit list: each hit is keyed by its best (first) HSP, with its
// slot in hits as the key's Worker. Nested application up the tree therefore
// equals the flat merge exactly.
func sortCapTreeHits(hits []treeHit, maxTargets int) []treeHit {
	keys := make([]engine.HitMeta, len(hits))
	for i, th := range hits {
		best := th.Hit.HSPs[0] // the kernel reports no subject without an HSP
		keys[i] = engine.HitMeta{OID: th.Hit.OID, Worker: i, Score: best.Score, EValue: best.EValue}
	}
	keys = engine.MergeHits(keys, maxTargets)
	out := make([]treeHit, len(keys))
	for i, k := range keys {
		out[i] = hits[k.Worker]
	}
	return out
}

// treeResultsCombiner folds two bundles: per query, concatenate and
// re-select. Merge work lands on the COMBINING rank's clock — the
// distribution that takes the merge off the master's critical path.
func treeResultsCombiner(r *mpi.Rank, maxTargets int, errp *error) func(a, b []byte) []byte {
	return func(a, b []byte) []byte {
		var ra, rb treeResults
		ca, cb := engine.Decoder(a), engine.Decoder(b)
		if err := ra.code(&ca).Err(); err != nil {
			*errp = err
			return nil
		}
		if err := rb.code(&cb).Err(); err != nil {
			*errp = err
			return nil
		}
		if len(ra.Hits) != len(rb.Hits) {
			*errp = fmt.Errorf("mpiblast: tree bundle query counts differ: %d vs %d", len(ra.Hits), len(rb.Hits))
			return nil
		}
		items := 0
		out := treeResults{Work: make([]blast.WorkCounters, len(ra.Hits)), Hits: make([][]treeHit, len(ra.Hits))}
		kept := 0
		for q := range ra.Hits {
			items += len(ra.Hits[q]) + len(rb.Hits[q])
			all := append(append([]treeHit(nil), ra.Hits[q]...), rb.Hits[q]...)
			out.Hits[q] = sortCapTreeHits(all, maxTargets)
			kept += len(out.Hits[q])
			out.Work[q] = ra.Work[q]
			out.Work[q].Add(rb.Work[q])
		}
		// One bundle ingest plus per-item merge work, charged where the
		// combine actually runs.
		r.Advance(r.Cost().ResultMsgCost + float64(float64(items)*r.Cost().MergeItemCost))
		engine.RecordMerge(r.Metrics(), r.ID(), items, kept)
		return out.encode()
	}
}

// treeAssign is a tree-mode assignment: the fragment id, or -1 for the
// release, which also carries the final survivor list so every rank derives
// the identical tree membership for the merge.
type treeAssign struct {
	Frag  int
	Alive []int
}

func (a *treeAssign) code(c *engine.Codec) *engine.Codec {
	c.Int(&a.Frag)
	c.Ints(&a.Alive)
	return c
}

func (a treeAssign) encode() []byte { return a.code(new(engine.Codec)).Bytes() }
