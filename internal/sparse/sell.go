package sparse

import (
	"fmt"

	"repro/internal/mat"
)

// sellLanes is the number of rows in one SELL group: four float64
// lanes fill one YMM register.
const sellLanes = 4

// SELL is the compute layout of an unstructured-sparse layer, the
// sliced ELLPACK form SELL-4: the CSR rows, sorted by nonzero count
// (most first, ties in row order), are cut into groups of four, and
// each group is stored as a run of steps. Step k of a group holds the
// k-th nonzero of each of its four rows, the four weights side by side
// and their four input columns side by side, so one step is one YMM of
// weights and one gather of four inputs. A row shorter than its
// group's longest is padded with +0 weights at column 0; so are the
// missing rows of a ragged last group.
//
// SELL is read-only after FromDenseSELL and may be shared by any
// number of goroutines. Its fields are unexported because MatVec's
// assembly body trusts them to be exactly as FromDenseSELL built them.
type SELL struct {
	Rows, ColsDim int
	// groupPtr[g]..groupPtr[g+1] are group g's steps; step k's lanes
	// are weights[4k:4k+4] and cols[4k:4k+4].
	groupPtr []int32
	weights  []float64
	cols     []int32
	// perm[4g+lane] is the row group g's lane scores; bias is stored
	// in the same order, +0 where the layer has none.
	perm []int32
	bias []float64
}

// FromDenseSELL packs a dense matrix into SELL-4, dropping exact zeros
// (which is what a pruning mask leaves behind). bias may be nil. One
// counting pass over the matrix gives every row's nonzero count; a
// counting sort on those counts orders the rows, which fixes every
// group's length, so each slice is allocated once at its final size
// before the second pass fills it.
func FromDenseSELL(w *mat.Matrix, bias []float64) *SELL {
	rows, cols := w.Rows, w.Cols
	l := &SELL{Rows: rows, ColsDim: cols}
	count := make([]int32, rows)
	for r := range count {
		n := int32(0)
		for _, v := range w.Row(r) {
			if v != 0 {
				n++
			}
		}
		count[r] = n
	}
	// Counting sort, most nonzeros first: bucket cols-n holds the rows
	// with n nonzeros, in row order.
	next := make([]int32, cols+2)
	for _, n := range count {
		next[cols-int(n)+1]++
	}
	for k := 1; k < len(next); k++ {
		next[k] += next[k-1]
	}
	l.perm = make([]int32, rows)
	for r, n := range count {
		k := cols - int(n)
		l.perm[next[k]] = int32(r)
		next[k]++
	}

	groups := (rows + sellLanes - 1) / sellLanes
	l.groupPtr = make([]int32, groups+1)
	for g := 0; g < groups; g++ {
		// A group's first row is its longest.
		l.groupPtr[g+1] = l.groupPtr[g] + count[l.perm[g*sellLanes]]
	}
	steps := int(l.groupPtr[groups])
	l.weights = make([]float64, sellLanes*steps)
	l.cols = make([]int32, sellLanes*steps)
	l.bias = make([]float64, rows)
	for slot, r := range l.perm {
		k := sellLanes*int(l.groupPtr[slot/sellLanes]) + slot%sellLanes
		for c, v := range w.Row(int(r)) {
			if v != 0 {
				l.weights[k] = v
				l.cols[k] = int32(c)
				k += sellLanes
			}
		}
		if bias != nil {
			l.bias[slot] = bias[r]
		}
	}
	return l
}

// NNZ reports the number of stored nonzeros, padding excluded.
func (l *SELL) NNZ() int {
	n := 0
	for _, v := range l.weights {
		if v != 0 {
			n++
		}
	}
	return n
}

// Stored reports the number of stored weight slots, padding included:
// the products MatVec computes.
func (l *SELL) Stored() int { return len(l.weights) }

// ToDense reconstructs the dense matrix (for tests and round-trips).
// Padding is dropped.
func (l *SELL) ToDense() *mat.Matrix {
	m := mat.NewMatrix(l.Rows, l.ColsDim)
	for slot, r := range l.perm {
		g, lane := slot/sellLanes, slot%sellLanes
		for k := l.groupPtr[g]; k < l.groupPtr[g+1]; k++ {
			i := sellLanes*int(k) + lane
			if l.weights[i] != 0 {
				m.Set(int(r), int(l.cols[i]), l.weights[i])
			}
		}
	}
	return m
}

// MatVec computes dst = L·x (+ bias when present). dst must have
// length Rows and x length ColsDim. dst may not alias x.
//
// Every row is one lane of its group. The lane's accumulator starts at
// +0 and takes the s += w*x step of the dense sum, a separately
// rounded multiply and add, over the row's nonzeros in ascending
// column order, then adds the bias, and the sum is stored at the
// row's place in dst. That is the dense sum's order with its exact
// zero terms left out, so on matrices whose skipped entries are exact
// zeros the result is bit-identical to the dense matvec, whichever
// body runs.
//
// The padding keeps that promise on finite inputs. A padded step adds
// +0·x[0], which is ±0 for finite x[0]. A round-to-nearest sum that
// starts at +0 never becomes −0: x+y is −0 only when both are −0, an
// exact cancellation gives +0, and an addition never underflows to
// zero. So the accumulator is +0, a nonzero number, ±Inf or NaN, and
// adding ±0 to any of those leaves its bits unchanged; the same holds
// for the +0 bias of a layer without one. Dense adds exactly such
// zero terms for every pruned weight, which is why skipping them is
// exact in the first place.
//
// On an AVX machine (mat.HasAVX) one assembly call scores every full
// group, each step one YMM multiply and add; the ragged last group
// and other machines run the portable Go body over the same layout.
func (l *SELL) MatVec(dst, x []float64) {
	if len(x) != l.ColsDim || len(dst) != l.Rows {
		panic(fmt.Sprintf("sparse: SELL MatVec dimension mismatch: layer %dx%d, x %d, dst %d",
			l.Rows, l.ColsDim, len(x), len(dst)))
	}
	done := 0 // groups the AVX body scored
	if mat.HasAVX() {
		full := l.Rows / sellLanes
		sell4AVX(dst, x, l.bias[:full*sellLanes], l.weights, l.cols, l.groupPtr[:full+1], l.perm[:full*sellLanes])
		done = full
	}
	l.groups(dst, x, done)
}

// groups is the portable body: it scores groups from..end into dst,
// the group's four rows in four accumulators the compiler keeps in
// registers, one step per iteration.
func (l *SELL) groups(dst, x []float64, from int) {
	for g := from; g+1 < len(l.groupPtr); g++ {
		lo, hi := sellLanes*int(l.groupPtr[g]), sellLanes*int(l.groupPtr[g+1])
		w, c := l.weights[lo:hi], l.cols[lo:hi]
		var a0, a1, a2, a3 float64
		for k := 0; k < len(w); k += sellLanes {
			ws, cs := w[k:][:sellLanes], c[k:][:sellLanes]
			a0 += ws[0] * x[cs[0]]
			a1 += ws[1] * x[cs[1]]
			a2 += ws[2] * x[cs[2]]
			a3 += ws[3] * x[cs[3]]
		}
		out := [sellLanes]float64{a0, a1, a2, a3}
		slot := g * sellLanes
		for lane, r := range l.perm[slot:min(slot+sellLanes, l.Rows)] {
			dst[r] = out[lane] + l.bias[slot+lane]
		}
	}
}
