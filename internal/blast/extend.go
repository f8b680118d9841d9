package blast

import (
	"slices"

	"parblast/internal/matrix"
)

const negInf = int(-1) << 30

// ungappedSegment is the result of a two-directional ungapped extension.
type ungappedSegment struct {
	qFrom, qTo int // half-open query range
	sFrom, sTo int // half-open subject range
	score      int
	// seedQ/seedS is the point the gapped extension starts from: the middle
	// of the segment projected onto the hit diagonal (the classic choice).
	seedQ, seedS int
}

// scoreTable is a substitution matrix laid out flat: entry a<<5|b scores
// codes a and b. Both alphabets have fewer than 32 codes (protein 24, DNA
// 5), and score's mask keeps every read in bounds without a check.
type scoreTable [32 * 32]int16

func (t *scoreTable) score(a, b byte) int { return int(t[(uint(a)<<5|uint(b))&(32*32-1)]) }

// extendUngapped grows a word hit at (qPos, sPos) in both directions with an
// X-drop cutoff, returning the maximal-scoring segment. The word itself is
// part of the right extension, so scores are never double counted.
func extendUngapped(query, subj []byte, qPos, sPos int, t *scoreTable, xdrop int, work *WorkCounters) ungappedSegment {
	n := min(len(query)-qPos, len(subj)-sPos)
	best, right, cells := xdropRight(query[qPos:qPos+n], subj[sPos:sPos+n], t, xdrop)
	n = min(qPos, sPos)
	bestL, left, cellsL := xdropLeft(query[qPos-n:qPos], subj[sPos-n:sPos], t, xdrop)
	work.UngappedExtensions++
	work.UngappedCells += int64(cells + cellsL) // one per residue pair compared
	mid := (qPos - left + qPos + right) / 2
	return ungappedSegment{qFrom: qPos - left, qTo: qPos + right, sFrom: sPos - left, sTo: sPos + right,
		score: best + bestL, seedQ: mid, seedS: sPos + mid - qPos}
}

// xdropRight scores q[i] against s[i] for i = 0, 1, … until the score falls
// more than xdrop below its best; it returns the best, the residues reaching
// it and the pairs compared. With max and a conditional length the X-drop
// test is the only branch per cell. Out of line, like xdropLeft, its loop
// has the registers to itself: inlined, the score spills on every cell.
//
//go:noinline
func xdropRight(q, s []byte, t *scoreTable, xdrop int) (best, length, cells int) {
	s = s[:len(q)]
	score := 0
	for cells < len(q) {
		score += t.score(q[cells], s[cells])
		cells++
		if score > best {
			length = cells
		}
		best = max(best, score)
		if best-score > xdrop {
			break
		}
	}
	return best, length, cells
}

// xdropLeft is xdropRight from the end of q and s down.
//
//go:noinline
func xdropLeft(q, s []byte, t *scoreTable, xdrop int) (best, length, cells int) {
	s = s[:len(q)]
	score := 0
	for i := len(q) - 1; i >= 0; i-- {
		score += t.score(q[i], s[i])
		cells++
		if score > best {
			length = cells
		}
		best = max(best, score)
		if best-score > xdrop {
			break
		}
	}
	return best, length, cells
}

// gappedResult carries one direction of a gapped X-drop extension.
type gappedResult struct {
	score int
	qEnd  int // query residues consumed
	sEnd  int // subject residues consumed
	ops   []EditOp
}

// Traceback cell encoding (Gotoh): 2 bits for the H source plus explicit
// gap-open flags for the E and F recurrences, which makes the walk exact.
const (
	tbStop  = 0
	tbDiag  = 1
	tbFromE = 2 // H(i,j) == E(i,j): gap in the query ends here
	tbFromF = 3 // H(i,j) == F(i,j): gap in the subject ends here
	tbMask  = 3
	tbEOpen = 4 // E(i,j) opened from H(i,j-1) (vs extending E(i,j-1))
	tbFOpen = 8 // F(i,j) opened from H(i-1,j) (vs extending F(i-1,j))
)

// dpRow is one stored traceback row covering columns [lo, lo+(end-start));
// its cells live at scratch.cells[start:end]. Offsets rather than slices are
// stored so the arena can reallocate while rows are accumulating.
type dpRow struct {
	lo         int
	start, end int
}

// dpScratch holds every buffer the gapped extension needs. It belongs to
// one Context (one goroutine), grows monotonically, and is reused across
// all seeds of a query, so steady-state gapped extension allocates nothing.
type dpScratch struct {
	prevH, prevF []int
	curH, curF   []int
	rows         []dpRow
	cells        []byte // traceback cell arena, reset per extension

	revQ, revS []byte // reversed-slice buffers for the leftward extension

	// Two traceback op buffers, alternated between calls: gappedFromSeed
	// keeps the rightward ops alive while the leftward extension runs.
	opsA, opsB []EditOp
	useB       bool
}

// ensure grows the DP rows to cover n+1 columns, at least doubling them so
// that a run of ever-longer subjects costs O(longest) allocation.
func (sc *dpScratch) ensure(n int) {
	if len(sc.prevH) < n+1 {
		size := max(n+1, 2*len(sc.prevH))
		sc.prevH = make([]int, size)
		sc.prevF = make([]int, size)
		sc.curH = make([]int, size)
		sc.curF = make([]int, size)
	}
}

// nextOps returns the traceback op buffer to use for the next extension,
// reset to zero length. Buffers alternate, so at most two results are live
// at once — exactly the two half-extensions of one seed.
func (sc *dpScratch) nextOps() []EditOp {
	sc.useB = !sc.useB
	if sc.useB {
		return sc.opsB[:0]
	}
	return sc.opsA[:0]
}

// storeOps saves a possibly-grown op buffer back into its scratch slot.
func (sc *dpScratch) storeOps(ops []EditOp) {
	if sc.useB {
		sc.opsB = ops
	} else {
		sc.opsA = ops
	}
}

// growCells returns cells with room for n more bytes. The arena at least
// doubles, so a context's arena reaches its peak in a few steps (slices.Grow
// adds a quarter at a time past 256 bytes) and is then reused by every later
// extension.
func growCells(cells []byte, n int) []byte {
	grown := make([]byte, len(cells), max(len(cells)+n, 2*cap(cells), 1<<12))
	copy(grown, cells)
	return grown
}

// reverseInto fills dst (grown from buf) with the bytes of b reversed.
func reverseInto(buf []byte, b []byte) []byte {
	buf = slices.Grow(buf[:0], len(b))[:len(b)]
	for i, c := range b {
		buf[len(b)-1-i] = c
	}
	return buf
}

// affine is one Gotoh gap recurrence: the better of opening a gap (open) and
// extending one (ext), clamped to negInf once it is dead, and flag when the
// gap opens. A tie opens, so with Gaps.Open == 0 even two dead inputs do.
// It is written to compile to conditional moves, not branches.
func affine(open, ext, flag int) (int, int) {
	if open < ext {
		flag = 0
	}
	v := max(open, ext)
	if v < negInf/2 {
		v = negInf
	}
	return v, flag
}

// fillWindow evaluates the cells of one DP row whose upper and upper-left
// neighbours all lie inside the previous row's window, so that none needs a
// range check. The slices are re-based to the window: cell k aligns
// subj[k-1], reads prevH[k-1] diagonally and prevH[k], prevF[k] above, and
// lands in curH, curF and tb at k; cell 0 is the caller's, whose H and E
// come in as hLeft and e. It returns H and E of the last cell, the first and
// last live cells (0, 0 if none) and the cell of a new best (0 if none).
func fillWindow(prevH, prevF, curH, curF []int, tb, subj []byte, score []int16, gapOE, gapE, xdrop, best, hLeft, e int) (int, int, int, int, int) {
	// Equal lengths let the compiler drop the bounds checks in the loop.
	prevH = prevH[:len(subj)+1]
	prevF, curH, curF, tb = prevF[:len(prevH)], curH[:len(prevH)], curF[:len(prevH)], tb[:len(prevH)]
	first, last, bestAt := 0, 0, 0
	for k := 1; k < len(prevH); k++ {
		var cell int
		e, cell = affine(hLeft-gapOE, e-gapE, tbEOpen)
		f, fOpen := affine(prevH[k]-gapOE, prevF[k]-gapE, tbFOpen)
		cell |= fOpen
		h, src := prevH[k-1]+int(score[subj[k-1]]), tbDiag // a dead neighbour stays dead under any score
		if e > h {
			src = tbFromE
		}
		h = max(h, e)
		if f > h {
			src = tbFromF
		}
		h = max(h, f)
		// The X-drop line rises with best along the row.
		if h <= negInf/2 || best-h > xdrop {
			h, src = negInf, tbStop
		} else {
			if first == 0 {
				first = k
			}
			last = k
			if h > best {
				best, bestAt = h, k
			}
		}
		hLeft = h
		curH[k], curF[k] = h, f
		tb[k] = byte(cell | src)
	}
	return hLeft, e, first, last, bestAt
}

// extendGapped aligns query against subj from their starts with affine gaps
// and an X-drop live-window, NCBI ALIGN_EX style. It returns the best
// prefix-path score and the ops of the path reaching it, in forward order
// for the given slices (callers reverse them for the leftward direction).
// The returned ops alias sc's buffers and stay valid only until the second
// following extendGapped call on the same scratch; nil sc allocates a
// private scratch (tests and one-shot callers).
//
// The model charges one GappedCell per evaluated cell; the host pays per row
// what it can. Row i-1 is alive only inside [prevLo, prevHi], so row i is
// evaluated in four pieces that each know which neighbours exist, and the
// cell count, the traceback bytes and the counters come out exactly as if
// every cell had range-checked its neighbours one by one.
func extendGapped(sc *dpScratch, query, subj []byte, m *matrix.Matrix, gaps matrix.GapPenalties, xdrop int, work *WorkCounters) gappedResult {
	if len(query) == 0 || len(subj) == 0 {
		return gappedResult{}
	}
	if sc == nil {
		sc = &dpScratch{}
	}
	gapOE := gaps.Open + gaps.Extend
	gapE := gaps.Extend
	n := len(subj)

	sc.ensure(n)
	// prevH/prevF are valid only within [prevLo, prevHi].
	prevH, prevF := sc.prevH[:n+1], sc.prevF[:n+1]
	curH, curF := sc.curH[:n+1], sc.curF[:n+1]
	prevLo, prevHi := 0, 0

	rows := sc.rows[:0]
	cells := sc.cells[:0]
	best, bestI, bestJ := 0, 0, 0
	evaluated := 0 // DP cells of rows 1.., charged to work once at the end

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

	// What a cell with nothing alive above it records for F.
	_, tie := affine(negInf-gapOE, negInf-gapE, tbFOpen)
	deadF := byte(tie)

	for i := 1; i <= len(query); i++ {
		score := m.Row(query[i-1])
		// The leftmost possibly-live column this row is prevLo, via F. The
		// row can run to column n: reserve its traceback bytes once.
		startJ := prevLo
		rowStart := len(cells)
		if cap(cells)-rowStart < n-startJ+1 {
			cells = growCells(cells, n-startJ+1)
		}
		cells = cells[:rowStart+n-startJ+1]
		tb := cells[rowStart:] // tb[j-startJ] is column j
		newLo, newHi := -1, -1

		// Column startJ has no left neighbour and its diagonal predecessor
		// is outside the window: F only. F (like E below) is an earlier H
		// minus a positive penalty, so it never raises best.
		f, cell := affine(prevH[startJ]-gapOE, prevF[startJ]-gapE, tbFOpen)
		h := negInf
		if f > negInf/2 && best-f <= xdrop {
			h, newLo, newHi = f, startJ, startJ
			cell |= tbFromF
		}
		curH[startJ], curF[startJ] = h, f
		tb[0] = byte(cell)
		hLeft, e := h, negInf // H(i, j-1) and E(i, j-1)

		// Columns (startJ, prevHi+1]: every neighbour is inside the window,
		// once the column just past it reads as dead — whatever an older
		// row left there, which is what a range check would have answered.
		end := n
		if prevHi < n {
			end = prevHi + 1
			prevH[end], prevF[end] = negInf, negInf
		}
		var first, last, bestAt int
		hLeft, e, first, last, bestAt = fillWindow(prevH[startJ:], prevF[startJ:], curH[startJ:], curF[startJ:], tb, subj[startJ:end],
			score, gapOE, gapE, xdrop, best, hLeft, e)
		if last > 0 {
			if newLo < 0 {
				newLo = startJ + first
			}
			newHi = startJ + last
		}
		if bestAt > 0 {
			best, bestI, bestJ = curH[startJ+bestAt], i, startJ+bestAt
		}
		j := end + 1

		// Past prevHi+1 nothing above is alive: E only, and E only falls.
		// The scan stops after the first cell that leaves neither H nor E
		// alive (that cell is evaluated, so it is counted and stored).
		for ; j <= n && (hLeft != negInf || e != negInf); j++ {
			e, cell = affine(hLeft-gapOE, e-gapE, tbEOpen)
			hLeft = negInf
			if e > negInf/2 && best-e <= xdrop {
				hLeft, newHi = e, j
				curH[j], curF[j] = e, negInf
				cell |= tbFromE
			} else if e-(n-j)*gapE >= negInf/2 {
				// A dead cell here has only dead cells to its right: E keeps
				// falling under an X-drop line that cannot move, and (the
				// condition) stays above negInf/2 to column n, so the scan
				// would visit every one of them and store the same byte.
				tail := tb[j-startJ : n-startJ+1]
				clear(tail)
				for k := 0; deadF != 0 && k < len(tail); k++ {
					tail[k] = deadF
				}
				tail[0] |= byte(cell)
				j = n + 1
				break
			}
			tb[j-startJ] = byte(cell) | deadF
		}

		evaluated += j - startJ
		if newLo < 0 {
			cells = cells[:rowStart]
			break // the whole row fell below the X-drop line
		}
		cells = cells[:rowStart+j-startJ]
		rows = append(rows, dpRow{lo: startJ, start: rowStart, end: len(cells)})
		prevH, curH = curH, prevH
		prevF, curF = curF, prevF
		prevLo, prevHi = newLo, newHi
	}
	// Persist possibly-grown buffers for the next extension.
	sc.rows, sc.cells = rows, cells
	work.GappedExtensions++
	work.GappedCells += int64(evaluated)

	if best <= 0 {
		return gappedResult{}
	}
	ops := walkTraceback(sc, rows, cells, bestI, bestJ, work)
	return gappedResult{score: best, qEnd: bestI, sEnd: bestJ, ops: ops}
}

// walkTraceback follows the stored Gotoh decisions from (bi, bj) back to the
// origin, emitting ops in reverse and then flipping them. The result lives
// in one of the scratch's alternating op buffers.
func walkTraceback(sc *dpScratch, rows []dpRow, cells []byte, bi, bj int, work *WorkCounters) []EditOp {
	rev := sc.nextOps()
	i, j := bi, bj
	walked := 0
	const (
		inH = iota
		inE
		inF
	)
	state := inH
	for i > 0 || j > 0 {
		if i < 0 || i >= len(rows) {
			break
		}
		r := rows[i]
		if j < r.lo || j-r.lo >= r.end-r.start {
			break
		}
		cell := cells[r.start+j-r.lo]
		walked++
		switch state {
		case inH:
			switch cell & tbMask {
			case tbDiag:
				rev = append(rev, OpSub)
				i--
				j--
			case tbFromE:
				state = inE
			case tbFromF:
				state = inF
			default: // tbStop
				i, j = 0, 0
			}
		case inE:
			// E(i,j) consumed subj[j-1]; predecessor is at (i, j-1).
			rev = append(rev, OpIns)
			if cell&tbEOpen != 0 {
				state = inH
			}
			j--
		case inF:
			// F(i,j) consumed query[i-1]; predecessor is at (i-1, j).
			rev = append(rev, OpDel)
			if cell&tbFOpen != 0 {
				state = inH
			}
			i--
		}
	}
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	sc.storeOps(rev)
	work.TracebackCells += int64(walked)
	return rev
}

// reverseBytes returns a reversed copy of b (used by one-shot callers; the
// kernel's hot path reverses into Context scratch instead).
func reverseBytes(b []byte) []byte {
	return reverseInto(nil, b)
}

// reverseOps reverses an op slice in place and returns it.
func reverseOps(ops []EditOp) []EditOp {
	for l, r := 0, len(ops)-1; l < r; l, r = l+1, r-1 {
		ops[l], ops[r] = ops[r], ops[l]
	}
	return ops
}
