// Hierarchical tree merge for the baseline engine: instead of streaming
// every (query, fragment) result through the master during the search
// phase — the §3.2 serialization this repo's mergescale experiment
// measures — workers hold their results locally, pre-merge them to the
// per-query top-k with the master's exact selection rule, and fold them
// up a k-ary reduction tree. The master ingests O(fanout·log N) bundles
// on its clock instead of O(fragments·queries) messages, then renders and
// writes the output exactly as the flat baseline does (including the
// serial per-hit residue fetch, which stays the baseline's documented
// bottleneck — this path fixes the MERGE, not the fetch).
package mpiblast

import (
	"fmt"
	"sort"

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

func (t *treeResults) encode() []byte {
	var w engine.Writer
	w.Uint(uint64(len(t.Hits)))
	for q := range t.Hits {
		engine.EncodeWork(&w, t.Work[q])
		w.Uint(uint64(len(t.Hits[q])))
		for _, th := range t.Hits[q] {
			w.Int(int64(th.Worker))
			engine.EncodeWireHit(&w, th.Hit)
		}
	}
	return w.Bytes()
}

func decodeTreeResults(data []byte) (treeResults, error) {
	r := engine.NewReader(data)
	n := int(r.Uint())
	if r.Err() != nil || n < 0 || n > 1<<24 {
		return treeResults{}, fmt.Errorf("mpiblast: corrupt tree results header")
	}
	t := treeResults{Work: make([]blast.WorkCounters, n), Hits: make([][]treeHit, n)}
	for q := 0; q < n && r.Err() == nil; q++ {
		t.Work[q] = engine.DecodeWork(r)
		nh := int(r.Uint())
		for i := 0; i < nh && r.Err() == nil; i++ {
			th := treeHit{Worker: int(r.Int())}
			th.Hit = engine.DecodeWireHit(r)
			t.Hits[q] = append(t.Hits[q], th)
		}
	}
	return t, r.Err()
}

// sortCapTreeHits applies the global selection rule — (E-value asc, score
// desc, OID asc), capped at maxTargets — to one query's hit list. It is
// the same strict total order MergeHits imposes, so nested application up
// the tree equals the flat merge exactly.
func sortCapTreeHits(hits []treeHit, maxTargets int) []treeHit {
	type keyed struct {
		th     treeHit
		eValue float64
		score  int
		oid    int
	}
	ks := make([]keyed, len(hits))
	for i, th := range hits {
		res, _ := th.Hit.Unpack()
		ks[i] = keyed{th: th, eValue: res.BestEValue(), score: res.BestScore(), oid: res.OID}
	}
	sort.Slice(ks, func(i, j int) bool {
		a, b := ks[i], ks[j]
		if a.eValue != b.eValue {
			return a.eValue < b.eValue
		}
		if a.score != b.score {
			return a.score > b.score
		}
		return a.oid < b.oid
	})
	if maxTargets > 0 && len(ks) > maxTargets {
		ks = ks[:maxTargets]
	}
	out := make([]treeHit, len(ks))
	for i := range ks {
		out[i] = ks[i].th
	}
	return out
}

// treeResultsCombiner folds two bundles: per query, concatenate and
// re-select. Merge work lands on the COMBINING rank's clock — the
// distribution that takes the merge off the master's critical path.
func treeResultsCombiner(r *mpi.Rank, maxTargets int, errp *error) func(a, b []byte) []byte {
	return func(a, b []byte) []byte {
		ra, err := decodeTreeResults(a)
		if err != nil {
			*errp = err
			return nil
		}
		rb, err := decodeTreeResults(b)
		if err != nil {
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
		r.Advance(r.Cost().ResultMsgCost + float64(items)*r.Cost().MergeItemCost)
		engine.RecordMerge(r.Metrics(), r.ID(), items, kept)
		return out.encode()
	}
}

// encodeTreeAssign packs a tree-mode assignment: the fragment id, or -1
// for the release, which also carries the final survivor list so every
// rank derives the identical tree membership for the merge.
func encodeTreeAssign(frag int, alive []int) []byte {
	var w engine.Writer
	w.Int(int64(frag))
	w.Uint(uint64(len(alive)))
	for _, a := range alive {
		w.Int(int64(a))
	}
	return w.Bytes()
}

func decodeTreeAssign(data []byte) (frag int, alive []int, err error) {
	r := engine.NewReader(data)
	frag = int(r.Int())
	n := int(r.Uint())
	for i := 0; i < n && r.Err() == nil; i++ {
		alive = append(alive, int(r.Int()))
	}
	return frag, alive, r.Err()
}
