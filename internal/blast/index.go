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
	longest  int // the group's longest query: what its diagonal regions fit
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

// maxStrict bounds an alphabet's strict residues: protein's 20, DNA's 4.
const maxStrict = 20

// scoredResidue is a sorted matrix row's entry: a residue and its score.
type scoredResidue struct {
	score int16
	code  byte
}

// enumerate appends one query's registrations to pairs, each packed as
// wordID<<32 | query position: for protein the neighbourhood words of every
// query word, for DNA the exact word ending at each position (every DNA id,
// up to 4^16 - 1, fits the upper half), positions ascending. The index build
// passes pairs with room for registrations(query) more, so that each
// registration is written once, into a buffer of its final size.
func (s *Searcher) enumerate(pairs []uint64, query []byte) []uint64 {
	w := s.opts.WordSize
	if len(query) < w {
		return pairs
	}
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
	e := s.neighbourhood(pairs)
	e.words(query, w, func(maxTotal int) { e.walk(0, 0, 0, maxTotal) })
	return e.pairs
}

// registrations returns how many registrations enumerate appends for query,
// without making them.
func (s *Searcher) registrations(query []byte) int {
	w := s.opts.WordSize
	if len(query) < w {
		return 0
	}
	n := 0
	if s.opts.Matrix.Alphabet().Kind() != seq.Protein {
		var id uint64
		run := 0
		for i := range query {
			if id, run = s.roll.next(id, run, query, i); run >= w {
				n++
			}
		}
		return n
	}
	e := s.neighbourhood(nil)
	e.words(query, w, func(maxTotal int) { n += e.count(0, 0, maxTotal) })
	return n
}

// neighbourhood is the state of one query's protein enumeration: the words
// scoring at least threshold against word, registered at query position pos.
type neighbourhood struct {
	tab               *matrixTables
	strict, threshold int
	word              []byte
	pos               uint64
	pairs             []uint64
}

func (s *Searcher) neighbourhood(pairs []uint64) neighbourhood {
	return neighbourhood{tab: s.tab, strict: int(s.roll.strict), threshold: s.opts.Threshold, pairs: pairs}
}

// words hands visit every word of query that can reach the threshold, as
// e.word and e.pos, with its best possible score.
func (e *neighbourhood) words(query []byte, w int, visit func(maxTotal int)) {
words:
	for i := 0; i+w <= len(query); i++ {
		maxTotal := 0
		for _, c := range query[i : i+w] {
			if int(c) >= e.strict {
				continue words
			}
			maxTotal += int(e.tab.rows[c][0].score)
		}
		if maxTotal >= e.threshold {
			e.word, e.pos = query[i:i+w], uint64(i)
			visit(maxTotal)
		}
	}
}

// walk extends the prefix wordID, scoring score over the word's first at
// residues, by each residue that can still reach the threshold when the rest
// scores its best, maxRest. Rows are sorted best first, so the first that
// cannot ends the row; the last position emits its words in the loop.
func (e *neighbourhood) walk(at, wordID, score, maxRest int) {
	row := e.tab.rows[e.word[at]][:e.strict]
	rest := maxRest - int(row[0].score)
	last := at == len(e.word)-1
	for _, r := range row {
		if score+int(r.score)+rest < e.threshold {
			return
		}
		if id := wordID*e.strict + int(r.code); last {
			e.pairs = append(e.pairs, uint64(id)<<32|e.pos)
		} else {
			e.walk(at+1, id, score+int(r.score), rest)
		}
	}
}

// count is walk's number of words, found by the same pruning down to the
// word's last position, whose residues it counts by table: at the last
// position walk emits every residue scoring at least threshold - score.
func (e *neighbourhood) count(at, score, maxRest int) int {
	if at == len(e.word)-1 {
		return e.tab.countAtLeast(e.word[at], e.threshold-score)
	}
	row := e.tab.rows[e.word[at]][:e.strict]
	rest := maxRest - int(row[0].score)
	n := 0
	for _, r := range row {
		if score+int(r.score)+rest < e.threshold {
			break
		}
		n += e.count(at+1, score+int(r.score), rest)
	}
	return n
}

// groupEnd returns where the group of queries starting at batch position lo
// ends, and its longest query: the group ends at the first query whose
// registrations or packed position would take its offsets past
// maxGroupOffset. A group holds at least one query.
func groupEnd(lens []int, pairs [][]uint64, lo int) (hi, longest int) {
	total := 0
	for hi = lo; hi < len(lens); hi++ {
		l, t := max(longest, lens[hi]), total+len(pairs[hi])
		if hi > lo && ((hi-lo+1)<<bits.Len(uint(l))-1 > maxGroupOffset || t > maxGroupOffset) {
			break
		}
		longest, total = l, t
	}
	return hi, longest
}

// buildGroup lays out the registrations of queries [lo, hi) — pairs[k] being
// query k's, the longest of them longest residues — as one index,
// counting-sorting them into the CSR layout in two passes (count, fill): no
// per-word slices, no append churn. Its arrays come from spare.
func (s *Searcher) buildGroup(spare *spares, pairs [][]uint64, lo, hi, longest int) batchIndex {
	shift := uint(bits.Len(uint(longest)))
	g := batchIndex{first: lo, n: hi - lo, longest: longest, shift: shift, mask: 1<<shift - 1}
	total := 0
	for _, p := range pairs[lo:hi] {
		total += len(p)
	}
	if total == 0 {
		return g // no row to probe: the scan skips the group
	}
	if s.opts.Matrix.Alphabet().Kind() != seq.Protein {
		g.entries, _ = spare.csr(total, 0)
		g.buildSparse(pairs[lo:hi], total)
		return g
	}
	g.dense = true
	size := int(s.roll.none)
	// Pass 1 (count): offsets[id+1] holds id's registration count.
	g.entries, g.offsets = spare.csr(total, size+2)
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
