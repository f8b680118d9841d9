package blast

import (
	"fmt"

	"parblast/internal/seq"
)

// wordIndex maps subject words to the query positions they seed.
//
// For protein, the table is dense over the 20^w strict-residue word space
// and is populated with *neighbourhood* words: every word scoring ≥ T
// against some query word registers that query position. For DNA the table
// is a sparse map over exact 4^w words.
//
// Both layouts store all query positions in ONE flat arena (positions) in
// CSR style: the protein table keeps a dense offsets array (positions of
// word ID w live at positions[offsets[w]:offsets[w+1]]), the DNA table maps
// word IDs to (offset, count) spans into the same arena. Compared to the
// former [][]int32 / map[uint64][]int32 layouts this removes one slice
// header plus repeated append growth per populated word, and keeps the
// subject-scan loop's probe targets contiguous in memory.
type wordIndex struct {
	alpha  *seq.Alphabet
	w      int
	strict int
	roll   wordRoll // how a scan of this index's alphabet and word size rolls its ids

	dense     bool
	offsets   []int32         // protein: len 20^w + 1, CSR row offsets
	sparse    map[uint64]span // DNA: wordID -> span into positions
	positions []int32         // flat arena of query positions

	queryLen  int
	neighbors int64 // total (word, position) registrations, for work accounting
}

// wordRoll rolls the id of the word ending at each position of a sequence:
// the last w residues read as a base-strict number. The index build (DNA)
// and both subject scans step through it, so a scanned word and an indexed
// one get the same id by construction.
type wordRoll struct {
	w      int
	strict uint64
	lead   uint64 // strict^(w-1), the weight of a full window's oldest residue
}

func newWordRoll(w, strict int) wordRoll {
	lead := uint64(1)
	for i := 1; i < w; i++ {
		lead *= uint64(strict)
	}
	return wordRoll{w: w, strict: uint64(strict), lead: lead}
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

// span is one word's slice of the positions arena.
type span struct {
	off int32
	n   int32
}

// buildIndex constructs the lookup table for one query.
func buildIndex(query []byte, o *Options) (*wordIndex, error) {
	alpha := o.Matrix.Alphabet()
	idx := &wordIndex{alpha: alpha, w: o.WordSize, strict: alpha.StrictSize(), queryLen: len(query)}
	idx.roll = newWordRoll(idx.w, idx.strict)
	if len(query) < o.WordSize {
		if alpha.Kind() == seq.Protein {
			idx.dense = true
			idx.offsets = make([]int32, 2) // empty table; lookups see empty spans
		}
		return idx, nil
	}
	if alpha.Kind() == seq.Protein {
		size := 1
		for i := 0; i < idx.w; i++ {
			size *= idx.strict
			if size > 1<<26 {
				return nil, fmt.Errorf("blast: protein word table for w=%d too large", idx.w)
			}
		}
		idx.dense = true
		idx.buildProtein(query, o, size)
	} else {
		idx.buildDNA(query)
	}
	return idx, nil
}

// buildProtein registers neighbourhood words for every query word. The
// recursion enumerates candidate words position by position, pruning with
// the maximum achievable remaining score. Registrations are collected once
// as flat (wordID, qPos) pairs, then counting-sorted into the CSR layout in
// two passes (count, fill) — no per-word slices, no append churn.
func (idx *wordIndex) buildProtein(query []byte, o *Options, size int) {
	w := idx.w
	m := o.Matrix
	// rowMax[c] is the best score residue c can achieve against any strict
	// residue: the pruning bound.
	rowMax := make([]int, idx.strict)
	for c := 0; c < idx.strict; c++ {
		best := m.Score(byte(c), 0)
		for d := 1; d < idx.strict; d++ {
			if s := m.Score(byte(c), byte(d)); s > best {
				best = s
			}
		}
		rowMax[c] = best
	}
	// Pass 0: enumerate once, packing each registration as wordID<<32|qPos.
	var pairs []uint64
	var rec func(qWord []byte, pos, wordID, score, maxRest int, qPos int32)
	rec = func(qWord []byte, pos, wordID, score, maxRest int, qPos int32) {
		if pos == w {
			if score >= o.Threshold {
				pairs = append(pairs, uint64(wordID)<<32|uint64(uint32(qPos)))
			}
			return
		}
		rest := maxRest - rowMax[qWord[pos]]
		row := m.Row(qWord[pos])
		for c := 0; c < idx.strict; c++ {
			s := int(row[c])
			if score+s+rest < o.Threshold {
				continue
			}
			rec(qWord, pos+1, wordID*idx.strict+c, score+s, rest, qPos)
		}
	}
	for i := 0; i+w <= len(query); i++ {
		qWord := query[i : i+w]
		ok := true
		maxTotal := 0
		for _, c := range qWord {
			if int(c) >= idx.strict {
				ok = false
				break
			}
			maxTotal += rowMax[c]
		}
		if !ok || maxTotal < o.Threshold {
			continue
		}
		rec(qWord, 0, 0, 0, maxTotal, int32(i))
	}
	idx.neighbors = int64(len(pairs))

	// Pass 1 (count): offsets[id+1] holds id's registration count.
	idx.offsets = make([]int32, size+1)
	for _, p := range pairs {
		idx.offsets[p>>32+1]++
	}
	// Prefix-sum into row offsets.
	for i := 1; i <= size; i++ {
		idx.offsets[i] += idx.offsets[i-1]
	}
	// Pass 2 (fill): place positions with per-row cursors; restore offsets.
	idx.positions = make([]int32, len(pairs))
	for _, p := range pairs {
		id := p >> 32
		idx.positions[idx.offsets[id]] = int32(uint32(p))
		idx.offsets[id]++
	}
	for i := size; i > 0; i-- {
		idx.offsets[i] = idx.offsets[i-1]
	}
	idx.offsets[0] = 0
}

// buildDNA registers exact query words with a rolling word ID, packing each
// word's positions into the flat arena in two passes (count, fill).
func (idx *wordIndex) buildDNA(query []byte) {
	w := idx.w
	idx.sparse = make(map[uint64]span, len(query))
	// scan drives fn over every valid word of the query.
	scan := func(fn func(id uint64, start int32)) {
		var id uint64
		run := 0 // length of current run of strict residues
		for i := range query {
			if id, run = idx.roll.next(id, run, query, i); run >= w {
				fn(id, int32(i-w+1))
			}
		}
	}
	// Pass 1: count occurrences per word.
	scan(func(id uint64, start int32) {
		sp := idx.sparse[id]
		sp.n++
		idx.sparse[id] = sp
		idx.neighbors++
	})
	// Assign arena offsets (iteration order is irrelevant: spans only need
	// to tile the arena, and each word's fill below is query-ordered).
	var off int32
	for id, sp := range idx.sparse {
		idx.sparse[id] = span{off: off, n: 0} // n doubles as the fill cursor
		off += sp.n
	}
	idx.positions = make([]int32, off)
	// Pass 2: fill, restoring each span's count via the cursor.
	scan(func(id uint64, start int32) {
		sp := idx.sparse[id]
		idx.positions[sp.off+sp.n] = start
		sp.n++
		idx.sparse[id] = sp
	})
}

// lookupSparse returns the query positions seeded by a DNA word; nil when
// the word does not occur in the query.
func (idx *wordIndex) lookupSparse(wordID uint64) []int32 {
	sp, ok := idx.sparse[wordID]
	if !ok {
		return nil
	}
	return idx.positions[sp.off : sp.off+sp.n]
}
