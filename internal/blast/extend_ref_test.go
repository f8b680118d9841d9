package blast

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"parblast/internal/matrix"
)

// extendGappedRef is extendGapped as it stood before its rows were split at
// the previous row's live window: every cell range-checks its neighbours
// through closures, appends its traceback byte and bumps the work counter in
// place. It is kept verbatim as the oracle of TestExtendGappedDifferential.
func extendGappedRef(sc *dpScratch, query, subj []byte, m *matrix.Matrix, gaps matrix.GapPenalties, xdrop int, work *WorkCounters) gappedResult {
	if len(query) == 0 || len(subj) == 0 {
		return gappedResult{}
	}
	if sc == nil {
		sc = &dpScratch{}
	}
	work.GappedExtensions++
	gapOE := gaps.Open + gaps.Extend
	gapE := gaps.Extend
	n := len(subj)

	sc.ensure(n)
	// prevH/prevF are valid only within [prevLo, prevHi].
	prevH, prevF := sc.prevH, sc.prevF
	curH, curF := sc.curH, sc.curF
	prevLo, prevHi := 0, 0

	rows := sc.rows[:0]
	cells := sc.cells[:0]
	best, bestI, bestJ := 0, 0, 0

	// Row 0: leading gap in the query.
	prevH[0], prevF[0] = 0, negInf
	cells = append(cells, tbStop)
	for j := 1; j <= n; j++ {
		h := -(gaps.Open + j*gapE)
		if best-h > xdrop {
			break
		}
		prevH[j] = h
		prevF[j] = negInf
		cell := byte(tbFromE)
		if j == 1 {
			cell |= tbEOpen
		}
		cells = append(cells, cell)
		prevHi = j
	}
	rows = append(rows, dpRow{lo: 0, start: 0, end: len(cells)})

	getPrevH := func(j int) int {
		if j < prevLo || j > prevHi {
			return negInf
		}
		return prevH[j]
	}
	getPrevF := func(j int) int {
		if j < prevLo || j > prevHi {
			return negInf
		}
		return prevF[j]
	}

	for i := 1; i <= len(query); i++ {
		row := m.Row(query[i-1])
		rowStart := len(cells)
		// The leftmost possibly-live column this row: prevLo (via F) or
		// prevLo+1 (via diag); include column 0 boundary only while it is
		// reachable as a leading subject gap.
		startJ := prevLo
		newLo, newHi := -1, -1
		e := negInf     // E(i, j) carried along the row
		hLeft := negInf // H(i, j-1)
		for j := startJ; j <= n; j++ {
			var cell byte
			// E(i,j) from the left neighbour.
			if j > startJ {
				eo := hLeft - gapOE
				ee := e - gapE
				if eo >= ee {
					e = eo
					cell |= tbEOpen
				} else {
					e = ee
				}
				if e < negInf/2 {
					e = negInf
				}
			} else {
				e = negInf
			}
			// F(i,j) from the row above.
			fo := getPrevH(j) - gapOE
			fe := getPrevF(j) - gapE
			var f int
			if fo >= fe {
				f = fo
				cell |= tbFOpen
			} else {
				f = fe
			}
			if f < negInf/2 {
				f = negInf
			}
			// Diagonal. At j == 0 there is no diagonal predecessor; the
			// column-0 boundary (leading subject gap) falls out of the F
			// recurrence because H(i-1,0) and F(i-1,0) carry it.
			d := negInf
			if j >= 1 {
				if ph := getPrevH(j - 1); ph > negInf/2 {
					d = ph + int(row[subj[j-1]])
				}
			}
			h := d
			src := byte(tbDiag)
			if e > h {
				h = e
				src = tbFromE
			}
			if f > h {
				h = f
				src = tbFromF
			}
			work.GappedCells++
			if h <= negInf/2 || best-h > xdrop {
				h = negInf
				src = tbStop
			} else {
				if newLo < 0 {
					newLo = j
				}
				newHi = j
				if h > best {
					best = h
					bestI, bestJ = i, j
				}
			}
			hLeft = h
			curH[j] = h
			curF[j] = f
			cells = append(cells, cell|src)
			// Stop scanning right once past the previous row's reach and
			// nothing alive can propagate further along this row.
			if j > prevHi && h == negInf && e == negInf {
				break
			}
		}
		if newLo < 0 {
			cells = cells[:rowStart]
			break // the whole row fell below the X-drop line
		}
		rows = append(rows, dpRow{lo: startJ, start: rowStart, end: len(cells)})
		prevH, curH = curH, prevH
		prevF, curF = curF, prevF
		prevLo, prevHi = newLo, newHi
	}
	// Persist possibly-grown buffers for the next extension.
	sc.rows, sc.cells = rows, cells
	sc.prevH, sc.prevF, sc.curH, sc.curF = prevH, prevF, curH, curF

	if best <= 0 {
		return gappedResult{}
	}
	ops := walkTraceback(sc, rows, cells, bestI, bestJ, work)
	return gappedResult{score: best, qEnd: bestI, sEnd: bestJ, ops: ops}
}

// TestExtendGappedDifferential pins the row-split extendGapped to the
// per-cell reference: same result, same counters, same traceback arena.
// The reference charges the model; anything the split gets wrong — the dead-F
// tie opening when Gaps.Open == 0, the X-drop line rising with best along a
// row, the uncounted breaking cell, a stale F read past the live window —
// shows up here as a byte or a count.
func TestExtendGappedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	alpha := matrix.BLOSUM62.Size()
	// One residue in 25 is drawn from the whole alphabet, ambiguity codes
	// (B, Z, X, *) included: their negative rows kill cells mid-window.
	random := func(n int) []byte {
		out := randomProtein(rng, n)
		for i := range out {
			if rng.Intn(25) == 0 {
				out[i] = byte(rng.Intn(alpha))
			}
		}
		return out
	}
	gapSets := []matrix.GapPenalties{{Open: 11, Extend: 1}, {Open: 5, Extend: 2}, {Open: 1, Extend: 1}, {Open: 0, Extend: 2}}
	// One scratch per side, reused, so stale rows and cells of earlier,
	// longer extensions are there to be misread.
	var sc, scRef dpScratch
	const pairs = 24000
	live := 0
	for trial := 0; trial < pairs; trial++ {
		q := random(1 + rng.Intn(150))
		var s []byte
		if trial%2 == 0 {
			s = random(1 + rng.Intn(150))
		} else {
			s = mutate(rng, q, 0.05+0.3*rng.Float64())
			if len(s) > 150 {
				s = s[:150]
			}
		}
		gaps := gapSets[trial%len(gapSets)]
		xdrop := 1 + rng.Intn(60)

		var work, workRef WorkCounters
		got := extendGapped(&sc, q, s, matrix.BLOSUM62, gaps, xdrop, &work)
		want := extendGappedRef(&scRef, q, s, matrix.BLOSUM62, gaps, xdrop, &workRef)
		if got.score != want.score || got.qEnd != want.qEnd || got.sEnd != want.sEnd || !slices.Equal(got.ops, want.ops) {
			t.Fatalf("trial %d (gaps %+v, xdrop %d): result {%d %d %d %v}, reference {%d %d %d %v}\nq=%v\ns=%v",
				trial, gaps, xdrop, got.score, got.qEnd, got.sEnd, got.ops, want.score, want.qEnd, want.sEnd, want.ops, q, s)
		}
		if work != workRef {
			t.Fatalf("trial %d (gaps %+v, xdrop %d): work %+v, reference %+v\nq=%v\ns=%v", trial, gaps, xdrop, work, workRef, q, s)
		}
		if !slices.Equal(sc.rows, scRef.rows) {
			t.Fatalf("trial %d (gaps %+v, xdrop %d): traceback rows differ\n got %v\nwant %v\nq=%v\ns=%v", trial, gaps, xdrop, sc.rows, scRef.rows, q, s)
		}
		if !bytes.Equal(sc.cells, scRef.cells) {
			t.Fatalf("trial %d (gaps %+v, xdrop %d): traceback arena differs (%d vs %d bytes)\nq=%v\ns=%v", trial, gaps, xdrop, len(sc.cells), len(scRef.cells), q, s)
		}
		if got.score > 0 {
			live++
		}
	}
	if live < pairs/4 {
		t.Fatalf("only %d of %d pairs aligned at all; the comparison is close to vacuous", live, pairs)
	}
}

// extendUngappedRef is extendUngapped as it stood before it read a flat
// score table: every cell calls Matrix.Score and branches on a new best. It
// is kept verbatim as the oracle of TestExtendUngappedDifferential.
func extendUngappedRef(query, subj []byte, qPos, sPos int, m *matrix.Matrix, xdrop int, work *WorkCounters) ungappedSegment {
	// Right extension: from the word start onward.
	score := 0
	best := 0
	q, s := qPos, sPos
	bq, bs := qPos, sPos
	for q < len(query) && s < len(subj) {
		score += m.Score(query[q], subj[s])
		q++
		s++
		if score > best {
			best = score
			bq, bs = q, s
		}
		if best-score > xdrop {
			break
		}
	}
	cells := q - qPos // one per residue pair compared, either direction
	seg := ungappedSegment{qFrom: qPos, qTo: bq, sFrom: sPos, sTo: bs, score: best}
	// Left extension: before the word start.
	score = 0
	bestL := 0
	q, s = qPos, sPos
	lq, ls := qPos, sPos
	for q > 0 && s > 0 {
		q--
		s--
		score += m.Score(query[q], subj[s])
		if score > bestL {
			bestL = score
			lq, ls = q, s
		}
		if bestL-score > xdrop {
			break
		}
	}
	cells += qPos - q
	work.UngappedExtensions++
	work.UngappedCells += int64(cells)
	seg.qFrom, seg.sFrom = lq, ls
	seg.score += bestL
	mid := (seg.qFrom + seg.qTo) / 2
	seg.seedQ = mid
	seg.seedS = seg.sFrom + (mid - seg.qFrom)
	return seg
}

// blosum62Table is BLOSUM62 as the searcher's flat table.
var blosum62Table = &tablesFor(matrix.BLOSUM62).scores

// TestExtendUngappedDifferential pins the flat-table, branch-free
// extendUngapped to the per-cell reference: the same segment and the same
// WorkCounters on 10^5 seeds per alphabet. Sequences are random or
// homologous, with ambiguity codes; seeds sit anywhere including both ends
// of both sequences, and X-drops run from 1 to past any segment's score.
func TestExtendUngappedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, m := range []*matrix.Matrix{matrix.BLOSUM62, matrix.DNADefault, matrix.NewDNA(2, -3)} {
		tab := &tablesFor(m).scores
		alpha := m.Alphabet()
		residues := func(n int) []byte {
			out := make([]byte, n)
			for i := range out {
				out[i] = byte(rng.Intn(alpha.StrictSize()))
				if rng.Intn(25) == 0 {
					out[i] = byte(rng.Intn(alpha.Size()))
				}
			}
			return out
		}
		const seeds = 100000
		long := 0
		for trial := 0; trial < seeds; trial++ {
			pick := func(n int) int {
				switch rng.Intn(6) {
				case 0:
					return 0
				case 1:
					return n
				case 2:
					return max(n-1, 0)
				}
				return rng.Intn(n + 1)
			}
			q := residues(1 + rng.Intn(120))
			s := residues(1 + rng.Intn(120))
			qPos, sPos := pick(len(q)), pick(len(s))
			if trial%2 == 1 {
				// A homolog of the query's tail from at on, after a random
				// prefix of the subject, seeded on its diagonal.
				at, pre := rng.Intn(len(q)), rng.Intn(20)
				s = append(residues(pre), q[at:]...)
				for i := range s {
					if rng.Intn(8) == 0 {
						s[i] = byte(rng.Intn(alpha.Size()))
					}
				}
				qPos = at + pick(len(q)-at)
				sPos = pre + qPos - at
			}
			xdrop := 1 + rng.Intn(40)
			if trial%10 == 0 {
				xdrop = 1 << 20
			}
			var work, workRef WorkCounters
			got := extendUngapped(q, s, qPos, sPos, tab, xdrop, &work)
			want := extendUngappedRef(q, s, qPos, sPos, m, xdrop, &workRef)
			if got != want || work != workRef {
				t.Fatalf("%s trial %d (seed %d,%d, xdrop %d): segment %+v work %+v, reference %+v work %+v\nq=%v\ns=%v",
					m.Name(), trial, qPos, sPos, xdrop, got, work, want, workRef, q, s)
			}
			if want.qTo-want.qFrom > 20 {
				long++
			}
		}
		if long < seeds/20 {
			t.Fatalf("%s: only %d of %d segments longer than 20; the comparison is close to vacuous", m.Name(), long, seeds)
		}
	}
}
