package blast

import (
	"math"
	"math/bits"

	"parblast/internal/seq"
)

// batchIndex maps subject words to the (query, query position) pairs they
// seed, for a run of consecutive queries of one batch at once, so that a
// subject is scanned once for all of them: one probe per subject position
// yields every query's seeds.
//
// For protein, the table is dense over the 20^w strict-residue word space
// and is populated with *neighbourhood* words: every word scoring ≥ T
// against some query word registers that (query, position). For DNA the
// table is a sparse map over exact 4^w words.
//
// Both layouts store all registrations in ONE flat arena (entries) in CSR
// style: the protein table keeps a dense offsets array (word w's entries live
// at entries[offsets[w]:offsets[w+1]]), the DNA table maps word IDs to
// (offset, count) spans into the same arena. An entry packs the query's
// position in the group above shift bits and its query position below; a
// row lists its entries by query, then by position.
type batchIndex struct {
	first, n int // the group's queries: batch positions [first, first+n)
	shift    uint
	mask     uint32 // 1<<shift - 1: an entry's query position

	dense   bool
	offsets []int32         // protein: len 20^w + 2, CSR row offsets; row 20^w (none) is empty
	sparse  map[uint64]span // DNA: wordID -> span into entries
	entries []uint32
}

// maxGroupOffset bounds a group's arena and its packed entries: a batch
// whose offsets would pass it is cut into several groups, never wrapped.
// Tests lower it to cut small batches.
var maxGroupOffset = math.MaxInt32

// wordRoll rolls the id of the word ending at each position of a sequence:
// the last w residues read as a base-strict number. The index build and the
// subject encoding (Context.encode) step through it, so a scanned word and an
// indexed one get the same id by construction.
type wordRoll struct {
	w      int
	strict uint64
	lead   uint64 // strict^(w-1), the weight of a full window's oldest residue
	// none is strict^w, one past the last id: what a position where no word
	// ends is encoded as. Every index maps it to no query position, and at
	// DNA w = 16 it still differs from the top word's id, 4^16 - 1.
	none uint64
}

func newWordRoll(w, strict int) wordRoll {
	lead := uint64(1)
	for i := 1; i < w; i++ {
		lead *= uint64(strict)
	}
	return wordRoll{w: w, strict: uint64(strict), lead: lead, none: lead * uint64(strict)}
}

// next feeds residue s[j] to a window that holds id over the run residues
// before it and returns the new id and run; a word ends at j when the run
// has reached w. An ambiguity residue empties the window. A full window
// sheds its oldest residue by subtraction — one multiply, no division.
func (r wordRoll) next(id uint64, run int, s []byte, j int) (uint64, int) {
	c := uint64(s[j])
	if c >= r.strict {
		return 0, 0
	}
	if run >= r.w {
		id -= uint64(s[j-r.w]) * r.lead
	}
	return id*r.strict + c, run + 1
}

// span is one word's slice of the entries arena.
type span struct {
	off int32
	n   int32
}

// enumerate lists one query's registrations, each packed as wordID<<32 |
// query position: for protein the neighbourhood words of every query word,
// for DNA the exact word ending at each position. Every DNA id, up to 4^16 -
// 1, fits the upper half.
func (s *Searcher) enumerate(query []byte) []uint64 {
	w := s.opts.WordSize
	if len(query) < w {
		return nil
	}
	var pairs []uint64
	if s.opts.Matrix.Alphabet().Kind() != seq.Protein {
		var id uint64
		run := 0 // length of current run of strict residues
		for i := range query {
			if id, run = s.roll.next(id, run, query, i); run >= w {
				pairs = append(pairs, id<<32|uint64(i-w+1))
			}
		}
		return pairs
	}
	// The recursion enumerates candidate words position by position, pruning
	// with the maximum achievable remaining score.
	m, strict, threshold, rowMax := s.opts.Matrix, int(s.roll.strict), s.opts.Threshold, s.rowMax
	var rec func(qWord []byte, pos, wordID, score, maxRest int, qPos uint64)
	rec = func(qWord []byte, pos, wordID, score, maxRest int, qPos uint64) {
		if pos == w {
			if score >= threshold {
				pairs = append(pairs, uint64(wordID)<<32|qPos)
			}
			return
		}
		rest := maxRest - rowMax[qWord[pos]]
		row := m.Row(qWord[pos])
		for c := 0; c < strict; c++ {
			sc := int(row[c])
			if score+sc+rest < threshold {
				continue
			}
			rec(qWord, pos+1, wordID*strict+c, score+sc, rest, qPos)
		}
	}
	for i := 0; i+w <= len(query); i++ {
		qWord := query[i : i+w]
		ok := true
		maxTotal := 0
		for _, c := range qWord {
			if int(c) >= strict {
				ok = false
				break
			}
			maxTotal += rowMax[c]
		}
		if !ok || maxTotal < threshold {
			continue
		}
		rec(qWord, 0, 0, 0, maxTotal, uint64(i))
	}
	return pairs
}

// groupEnd returns where the group of queries starting at batch position lo
// ends: at the first query whose registrations or packed position would take
// the group's offsets past maxGroupOffset. A group holds at least one query.
func groupEnd(lens []int, pairs [][]uint64, lo int) (hi int, shift uint) {
	total := 0
	for hi = lo; hi < len(lens); hi++ {
		sh := max(shift, uint(bits.Len(uint(lens[hi]))))
		t := total + len(pairs[hi])
		if hi > lo && ((hi-lo+1)<<sh-1 > maxGroupOffset || t > maxGroupOffset) {
			break
		}
		shift, total = sh, t
	}
	return hi, shift
}

// buildGroup lays out the registrations of queries [lo, hi) — pairs[k] being
// query k's — as one index, counting-sorting them into the CSR layout in two
// passes (count, fill): no per-word slices, no append churn.
func (s *Searcher) buildGroup(pairs [][]uint64, lo, hi int, shift uint) batchIndex {
	g := batchIndex{first: lo, n: hi - lo, shift: shift, mask: 1<<shift - 1}
	total := 0
	for _, p := range pairs[lo:hi] {
		total += len(p)
	}
	if total == 0 {
		return g // no row to probe: the scan skips the group
	}
	g.entries = make([]uint32, total)
	if s.opts.Matrix.Alphabet().Kind() != seq.Protein {
		g.buildSparse(pairs[lo:hi], total)
		return g
	}
	g.dense = true
	size := int(s.roll.none)
	// Pass 1 (count): offsets[id+1] holds id's registration count.
	g.offsets = make([]int32, size+2)
	for _, qp := range pairs[lo:hi] {
		for _, p := range qp {
			g.offsets[p>>32+1]++
		}
	}
	// Prefix-sum into row offsets.
	for i := 1; i <= size+1; i++ {
		g.offsets[i] += g.offsets[i-1]
	}
	// Pass 2 (fill): place entries with per-row cursors; restore offsets.
	for k, qp := range pairs[lo:hi] {
		tag := uint32(k) << shift
		for _, p := range qp {
			id := p >> 32
			g.entries[g.offsets[id]] = tag | uint32(p)
			g.offsets[id]++
		}
	}
	for i := size; i > 0; i-- {
		g.offsets[i] = g.offsets[i-1]
	}
	g.offsets[0] = 0
	return g
}

// buildSparse is buildGroup's DNA layout: the same two passes over a map.
func (g *batchIndex) buildSparse(pairs [][]uint64, total int) {
	g.sparse = make(map[uint64]span, total)
	for _, qp := range pairs {
		for _, p := range qp {
			sp := g.sparse[p>>32]
			sp.n++
			g.sparse[p>>32] = sp
		}
	}
	// Assign arena offsets (iteration order is irrelevant: spans only need
	// to tile the arena, and each word's fill below is query-ordered).
	var off int32
	for id, sp := range g.sparse {
		g.sparse[id] = span{off: off, n: 0} // n doubles as the fill cursor
		off += sp.n
	}
	// Fill, restoring each span's count via the cursor.
	for k, qp := range pairs {
		tag := uint32(k) << g.shift
		for _, p := range qp {
			sp := g.sparse[p>>32]
			g.entries[sp.off+sp.n] = tag | uint32(p)
			sp.n++
			g.sparse[p>>32] = sp
		}
	}
}

// lookupSparse returns the entries seeded by a DNA word; nil when the word
// occurs in no query of the group.
func (g *batchIndex) lookupSparse(wordID uint64) []uint32 {
	sp, ok := g.sparse[wordID]
	if !ok {
		return nil
	}
	return g.entries[sp.off : sp.off+sp.n]
}
