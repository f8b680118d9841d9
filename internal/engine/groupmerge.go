package engine

import "sort"

// Hierarchical group merge: pioBLAST's tree-structured metadata merge folds
// per-query metadata sets with these. A group of workers pre-merges its
// members' per-query metadata with the SAME selection rule the master
// applies (MergeHits), so one aggregated message per group travels up the
// tree instead of one stream per worker. Because MergeHits is a strict
// total order over hits — (E-value asc, score desc, OID asc) with unique
// OIDs — nested top-k selection is exactly equal to flat top-k selection,
// which is what makes the hierarchical merge byte-identical to the
// master's flat merge at any fan-out and grouping. mpiBLAST folds its own
// alignment bundles (mpiblast.treeResults) under the same rule.

// CodeQueryMetas codes a counted per-query metadata set.
func CodeQueryMetas(c *Codec, metas *[]QueryMeta) {
	for i := range Len(c, metas) {
		(*metas)[i].Code(c)
	}
}

// EncodeQueryMetas serializes a per-query metadata set.
func EncodeQueryMetas(metas []QueryMeta) []byte {
	var c Codec
	CodeQueryMetas(&c, &metas)
	return c.Bytes()
}

// DecodeQueryMetas reverses EncodeQueryMetas.
func DecodeQueryMetas(data []byte) (metas []QueryMeta, err error) {
	c := Decoder(data)
	CodeQueryMetas(&c, &metas)
	return metas, c.Err()
}

// CombineQueryMetas merges two per-query metadata sets: entries with the
// same QueryIndex have their hit lists concatenated and re-selected by
// MergeHits (capped at maxTargets; 0 = uncapped) and their work counters
// summed. The result is ordered by ascending QueryIndex. Because the
// selection rule is a strict total order, the operation is associative and
// commutative, so any tree of pairwise combines yields the flat merge's
// exact result.
func CombineQueryMetas(a, b []QueryMeta, maxTargets int) []QueryMeta {
	byQuery := make(map[int]int, len(a)+len(b))
	out := make([]QueryMeta, 0, len(a)+len(b))
	for _, src := range [2][]QueryMeta{a, b} {
		for _, qm := range src {
			i, seen := byQuery[qm.QueryIndex]
			if !seen {
				byQuery[qm.QueryIndex] = len(out)
				out = append(out, QueryMeta{
					QueryIndex: qm.QueryIndex,
					Fragment:   qm.Fragment,
					Hits:       append([]HitMeta(nil), qm.Hits...),
					Work:       qm.Work,
				})
				continue
			}
			out[i].Hits = append(out[i].Hits, qm.Hits...)
			out[i].Work.Add(qm.Work)
			if out[i].Fragment != qm.Fragment {
				out[i].Fragment = -1 // mixed fragments: no single origin
			}
		}
	}
	for i := range out {
		out[i].Hits = MergeHits(out[i].Hits, maxTargets)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].QueryIndex < out[j].QueryIndex })
	return out
}

// MergeCost returns the number of hit items the combine above touches —
// the quantity both engines charge at MergeItemCost per item, keeping the
// simulated merge cost consistent between the flat and tree paths.
func MergeCost(a, b []QueryMeta) int {
	n := 0
	for _, qm := range a {
		n += len(qm.Hits)
	}
	for _, qm := range b {
		n += len(qm.Hits)
	}
	return n
}
