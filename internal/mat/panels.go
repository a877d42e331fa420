package mat

import "fmt"

// panelRows is the number of matrix rows one panel holds.
const panelRows = 16

// Panels is a dense matrix and a bias packed for MatVec: the rows are
// cut into panels of 16, and each panel is stored column-major, so the
// 16 weights of one input column sit next to each other and one load
// of x[j] feeds a whole panel. The last panel, and the bias, are
// zero-padded to 16 rows. Panels is read-only after NewPanels and may
// be shared by any number of goroutines.
type Panels struct {
	rows, cols int
	// data holds ceil(rows/16) panels of 16*cols weights: row r,
	// column c of the matrix is at data[(r/16)*16*cols + c*16 + r%16].
	data []float64
	bias []float64 // ceil(rows/16)*16 entries, bias[r] for row r
}

// NewPanels packs m and the bias b, one entry per row of m, into
// panels. The result copies both, so later writes to m or b do not
// reach it.
func NewPanels(m *Matrix, b []float64) *Panels {
	if len(b) != m.Rows {
		panic(fmt.Sprintf("mat: NewPanels: %d bias entries for %d rows", len(b), m.Rows))
	}
	n := (m.Rows + panelRows - 1) / panelRows
	p := &Panels{
		rows: m.Rows, cols: m.Cols,
		data: make([]float64, n*panelRows*m.Cols),
		bias: make([]float64, n*panelRows),
	}
	for r := 0; r < m.Rows; r++ {
		panel := p.data[(r/panelRows)*panelRows*m.Cols:]
		for c, w := range m.Row(r) {
			panel[c*panelRows+r%panelRows] = w
		}
	}
	copy(p.bias, b)
	return p
}

// MatVec computes dst = m*x + b, where m and b are the matrix and bias
// the panels were packed from. dst must have length m.Rows and x
// length m.Cols. dst may not alias x.
//
// Every row of a panel has its own accumulator. Each starts at +0 and
// takes the same s += w*x step as Dot, a separately rounded multiply
// and add, over its row's columns in ascending order, and the bias is
// added once before the store, so every output is bit-identical to
// Dot(row, x) + b[row] and to Matrix.MatVec followed by the bias add,
// whether the panel body is the AVX one or the portable one. The AVX
// body scores two panels per pass, one load of x[j] feeding both weight
// streams; that changes which rows share a pass, not any row's order.
func (p *Panels) MatVec(dst, x []float64) {
	if len(x) != p.cols || len(dst) != p.rows {
		panic(fmt.Sprintf("mat: Panels.MatVec dimension mismatch: m is %dx%d, x %d, dst %d",
			p.rows, p.cols, len(x), len(dst)))
	}
	if p.cols == 0 {
		// No column to sum: every output is the empty sum, +0, plus
		// its bias. The panel bodies assume at least one column.
		var zero float64
		for i := range dst {
			dst[i] = zero + p.bias[i]
		}
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
		b := p.bias[r:][:n]
		out := tail[:n]
		if r+n <= p.rows {
			out = dst[r : r+n]
		}
		switch {
		case n == 2*panelRows:
			panel2AVX(w, x, (*[2 * panelRows]float64)(b), (*[2 * panelRows]float64)(out))
		case avx:
			panelAVX(w, x, (*[panelRows]float64)(b), (*[panelRows]float64)(out))
		default:
			panelGo(w, x, (*[panelRows]float64)(b), (*[panelRows]float64)(out))
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

// HasAVX2 reports whether the CPU also has AVX2, the 256-bit integer
// instructions, on top of HasAVX. Integer vector bodies elsewhere (the
// serving frame codec) select themselves on it.
func HasAVX2() bool { return useAVX2 }

// panelGo is the portable panel body: the panel's rows as two groups
// of eight, each group one pass over x with eight add chains in
// flight. Eight rows are 64 bytes of a column, one cache line, so each
// pass reads its lines whole. Each row's bias is added once its sum
// is done. len(w) must be panelRows*len(x).
func panelGo(w, x []float64, b, out *[panelRows]float64) {
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
		out[g], out[g+1], out[g+2], out[g+3] = s0+b[g], s1+b[g+1], s2+b[g+2], s3+b[g+3]
		out[g+4], out[g+5], out[g+6], out[g+7] = s4+b[g+4], s5+b[g+5], s6+b[g+6], s7+b[g+7]
	}
}
