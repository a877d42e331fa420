package mat

import "fmt"

// panelRows is the number of matrix rows one panel holds.
const panelRows = 16

// Panels is a dense matrix packed for MatVec: the rows are cut into
// panels of 16, and each panel is stored column-major, so the 16
// weights of one input column sit next to each other and one load of
// x[j] feeds a whole panel. The last panel is zero-padded to 16 rows.
// Panels is read-only after NewPanels and may be shared by any number
// of goroutines.
type Panels struct {
	rows, cols int
	// data holds ceil(rows/16) panels of 16*cols weights: row r,
	// column c of the matrix is at data[(r/16)*16*cols + c*16 + r%16].
	data []float64
}

// NewPanels packs m into panels. The result copies m's weights, so
// later writes to m do not reach it.
func NewPanels(m *Matrix) *Panels {
	n := (m.Rows + panelRows - 1) / panelRows
	p := &Panels{rows: m.Rows, cols: m.Cols, data: make([]float64, n*panelRows*m.Cols)}
	for r := 0; r < m.Rows; r++ {
		panel := p.data[(r/panelRows)*panelRows*m.Cols:]
		for c, w := range m.Row(r) {
			panel[c*panelRows+r%panelRows] = w
		}
	}
	return p
}

// MatVec computes dst = m * x, where m is the matrix the panels were
// packed from. dst must have length m.Rows and x length m.Cols. dst
// may not alias x.
//
// Every row of a panel has its own accumulator. Each starts at +0 and
// takes the same s += w*x step as Dot, a separately rounded multiply
// and add, over its row's columns in ascending order, so every output
// is bit-identical to Dot(row, x) and to Matrix.MatVec, whether the
// panel body is the AVX one or the portable one. The AVX body scores
// two panels per pass, one load of x[j] feeding both weight streams;
// that changes which rows share a pass, not any row's order.
func (p *Panels) MatVec(dst, x []float64) {
	if len(x) != p.cols || len(dst) != p.rows {
		panic(fmt.Sprintf("mat: Panels.MatVec dimension mismatch: m is %dx%d, x %d, dst %d",
			p.rows, p.cols, len(x), len(dst)))
	}
	if p.cols == 0 {
		// No column to sum: every output is the empty sum, +0. The
		// panel bodies assume at least one column.
		clear(dst)
		return
	}
	avx := useAVX
	var tail [2 * panelRows]float64
	for r := 0; r < p.rows; {
		n := panelRows
		if avx && r+panelRows < p.rows {
			n = 2 * panelRows
		}
		w := p.data[r*p.cols:][:n*p.cols]
		out := tail[:n]
		if r+n <= p.rows {
			out = dst[r : r+n]
		}
		switch {
		case n == 2*panelRows:
			panel2AVX(w, x, (*[2 * panelRows]float64)(out))
		case avx:
			panelAVX(w, x, (*[panelRows]float64)(out))
		default:
			panelGo(w, x, (*[panelRows]float64)(out))
		}
		if r+n > p.rows {
			copy(dst[r:], out)
		}
		r += n
	}
}

// HasAVX reports whether the AVX kernel bodies run on this machine:
// the CPU has AVX and the OS saves the YMM registers. Other packages'
// kernels read it on every call rather than probing the CPU again, so
// one switch selects the body of every float kernel.
func HasAVX() bool { return useAVX }

// panelGo is the portable panel body: the panel's rows as two groups
// of eight, each group one pass over x with eight add chains in
// flight. Eight rows are 64 bytes of a column, one cache line, so each
// pass reads its lines whole. len(w) must be panelRows*len(x).
func panelGo(w, x []float64, out *[panelRows]float64) {
	for g := 0; g < panelRows; g += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for j, xj := range x {
			c := w[j*panelRows+g:][:8]
			s0 += c[0] * xj
			s1 += c[1] * xj
			s2 += c[2] * xj
			s3 += c[3] * xj
			s4 += c[4] * xj
			s5 += c[5] * xj
			s6 += c[6] * xj
			s7 += c[7] * xj
		}
		out[g], out[g+1], out[g+2], out[g+3] = s0, s1, s2, s3
		out[g+4], out[g+5], out[g+6], out[g+7] = s4, s5, s6, s7
	}
}
