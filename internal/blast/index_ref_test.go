package blast

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"parblast/internal/seq"
)

// enumerateRef is Searcher.enumerate as it stood before the searcher kept
// its matrix rows sorted: the recursion tests every column of a row and
// skips those that cannot reach the threshold, and each word is one more
// call. It is kept verbatim as the oracle of TestEnumerateDifferential and
// FuzzEnumerate, except that it derives its pruning bound, rowMax, itself
// (the searcher no longer keeps one).
func enumerateRef(s *Searcher, query []byte) []uint64 {
	rowMax := make([]int, s.roll.strict)
	for c := range rowMax {
		rowMax[c] = s.opts.Matrix.Score(byte(c), 0)
		for d := 1; d < int(s.roll.strict); d++ {
			rowMax[c] = max(rowMax[c], s.opts.Matrix.Score(byte(c), byte(d)))
		}
	}
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
	m, strict, threshold := s.opts.Matrix, int(s.roll.strict), s.opts.Threshold
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

// sameRegistrations reports how got differs from the reference's want, or
// "" when it does not: the same (word, position) set, positions ascending,
// so that only the order of the words within one position may differ.
func sameRegistrations(got, want []uint64) string {
	for i := 1; i < len(got); i++ {
		if uint32(got[i]) < uint32(got[i-1]) {
			return fmt.Sprintf("position %d listed after %d", uint32(got[i]), uint32(got[i-1]))
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d registrations, the reference %d", len(got), len(want))
	}
	// Sorted as position<<32 | word, both lists must be equal.
	byPosition := func(pairs []uint64) []uint64 {
		out := make([]uint64, len(pairs))
		for i, p := range pairs {
			out[i] = p<<32 | p>>32
		}
		slices.Sort(out)
		return out
	}
	g, r := byPosition(got), byPosition(want)
	for i := range g {
		if g[i] != r[i] {
			return fmt.Sprintf("registration %d is word %d at %d, the reference's word %d at %d",
				i, uint32(g[i]), g[i]>>32, uint32(r[i]), r[i]>>32)
		}
	}
	return ""
}

// TestEnumerateDifferential pins the best-first enumeration to the
// column-by-column reference: for protein word sizes 2–5 and thresholds
// around the default (11 at w = 3, four more per residue), on queries with
// ambiguity codes, every query registers the same (word, position) set, and
// a batch's index groups built from either list have byte-identical offsets
// and entries. The count the build sizes each query's buffer by is the
// reference's number of registrations.
func TestEnumerateDifferential(t *testing.T) {
	alpha := seq.ProteinAlphabet
	for w := 2; w <= 5; w++ {
		f := diffFixture{rng: rand.New(rand.NewSource(int64(700 + w))), alpha: alpha, w: w}
		queries := make([]*seq.Sequence, 5)
		for i := range queries {
			queries[i] = &seq.Sequence{ID: "q" + itoa(i), Residues: f.residues(w - 1 + f.rng.Intn(90)), Alpha: alpha}
		}
		def := 11 + 4*(w-3)
		for _, threshold := range []int{def - 3, def - 1, def, def + 2, 11 * w, 11*w + 1} {
			opts := DefaultProteinOptions()
			opts.WordSize, opts.Threshold = w, threshold
			s, err := NewSearcher(opts)
			if err != nil {
				t.Fatal(err)
			}
			pairs, ref := make([][]uint64, len(queries)), make([][]uint64, len(queries))
			words := 0
			for i, q := range queries {
				pairs[i], ref[i] = s.enumerate(nil, q.Residues), enumerateRef(s, q.Residues)
				if diff := sameRegistrations(pairs[i], ref[i]); diff != "" {
					t.Fatalf("w=%d T=%d query %d: %s", w, threshold, i, diff)
				}
				if n := s.registrations(q.Residues); n != len(ref[i]) {
					t.Fatalf("w=%d T=%d query %d: counted %d registrations, enumerated %d", w, threshold, i, n, len(ref[i]))
				}
				words += len(ref[i])
			}
			if threshold <= def && words == 0 {
				t.Fatalf("w=%d T=%d: no registration at all; the comparison is vacuous", w, threshold)
			}
			lens := make([]int, len(queries))
			for i, q := range queries {
				lens[i] = q.Len()
			}
			for lo := 0; lo < len(queries); {
				hi, longest := groupEnd(lens, ref, lo)
				g, gRef := s.buildGroup(nil, pairs, lo, hi, longest), s.buildGroup(nil, ref, lo, hi, longest)
				if !slices.Equal(g.offsets, gRef.offsets) || !slices.Equal(g.entries, gRef.entries) {
					t.Fatalf("w=%d T=%d: the index group of queries [%d, %d) differs from the reference's", w, threshold, lo, hi)
				}
				lo = hi
			}
		}
	}
}

// FuzzEnumerate holds the enumeration to enumerateRef on arbitrary queries
// (every residue code, ambiguity included), word sizes 2–5 and thresholds
// within seven of the default, and the count to the enumeration's length.
func FuzzEnumerate(f *testing.F) {
	f.Add([]byte("ARNDCQEGHILKMFPSTWYV"), uint8(1), int8(0))
	f.Add([]byte{0, 1, 22, 3, 4, 5, 6, 23, 8, 9, 10, 20}, uint8(0), int8(-7))
	f.Add([]byte{}, uint8(3), int8(7))
	f.Fuzz(func(t *testing.T, residues []byte, wordSize uint8, offset int8) {
		w := 2 + int(wordSize)%4
		query := make([]byte, min(len(residues), 48))
		for i := range query {
			query[i] = residues[i] % byte(seq.ProteinAlphabet.Size())
		}
		opts := DefaultProteinOptions()
		opts.WordSize, opts.Threshold = w, 11+4*(w-3)+int(offset)%8
		s, err := NewSearcher(opts)
		if err != nil {
			t.Fatal(err)
		}
		ref := enumerateRef(s, query)
		if diff := sameRegistrations(s.enumerate(nil, query), ref); diff != "" {
			t.Fatalf("w=%d T=%d query %v: %s", w, opts.Threshold, query, diff)
		}
		if n := s.registrations(query); n != len(ref) {
			t.Fatalf("w=%d T=%d query %v: counted %d registrations, enumerated %d", w, opts.Threshold, query, n, len(ref))
		}
	})
}
