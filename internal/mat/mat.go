// Package mat provides the small dense linear-algebra and statistics
// kernels that the rest of the repository builds on: vectors, row-major
// matrices, softmax/log-sum-exp, and summary statistics.
//
// Everything is float64 and allocation-conscious: the hot paths used by
// DNN inference (MatVec, Dot, Axpy) write into caller-provided buffers.
package mat

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zero Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a slice aliasing row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// NNZ reports the number of non-zero entries.
func (m *Matrix) NNZ() int {
	n := 0
	for _, v := range m.Data {
		if v != 0 {
			n++
		}
	}
	return n
}

// MatVec computes dst = m * x. dst must have length m.Rows and x length
// m.Cols. dst may not alias x.
//
// Rows are processed four at a time: each x[j] is loaded once and fed
// to four independent accumulators, so four add chains are in flight
// instead of one and the loop is no longer bound by add latency. Each
// accumulator still visits its row in ascending column order with the
// same s += w*x step as Dot, so every output is bit-identical to
// Dot(row, x) — the order the sparse and block-sparse kernels match.
// The Rows%4 leftover rows go through Dot itself.
func (m *Matrix) MatVec(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("mat: MatVec dimension mismatch: m is %dx%d, x %d, dst %d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	n := len(x)
	i := 0
	for ; i <= m.Rows-4; i += 4 {
		// Slicing every row to len(x) lets the compiler drop the
		// bounds checks in the inner loop.
		r0 := m.Data[i*n:][:n]
		r1 := m.Data[(i+1)*n:][:n]
		r2 := m.Data[(i+2)*n:][:n]
		r3 := m.Data[(i+3)*n:][:n]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < m.Rows; i++ {
		dst[i] = Dot(m.Data[i*n:][:n], x)
	}
}

// MatVecT computes dst = mᵀ * x, i.e. dst[j] = Σ_i m[i][j]*x[i].
// dst must have length m.Cols and x length m.Rows.
func (m *Matrix) MatVecT(dst, x []float64) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("mat: MatVecT dimension mismatch: m is %dx%d, x %d, dst %d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		Axpy(xi, row, dst)
	}
}

// Dot returns the inner product of a and b, which must have equal length.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	b = b[:len(a)] // states len(b) == len(a): no b[i] bounds check in the loop
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale writes dst[i] = alpha*x[i]. dst must have x's length and may
// alias it. Each product is one rounded multiply on either body, so the
// AVX body (four lanes per VMULPD) is bit-identical to the Go loop.
func Scale(dst []float64, alpha float64, x []float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("mat: Scale length mismatch %d vs %d", len(dst), len(x)))
	}
	if useAVX {
		scaleAVX(dst, alpha, x)
		return
	}
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = alpha * v
	}
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// GroupNorms writes dst[j] = sqrt(Σ_k x[j*group+k]² + eps), the p-norm
// (p = 2) of each consecutive group of group inputs. len(x) must be
// len(dst)*group.
//
// Every output is the scalar loop's: an accumulator that starts at +0
// and takes s += v*v over its group in member order, a separately
// rounded multiply and add, then one rounded add of eps and a correctly
// rounded square root. The AVX body scores four groups per pass: it
// gathers each member of the four groups into the lanes of one YMM,
// squares and adds them with one VMULPD and one VADDPD (no FMA), and
// takes the four roots with one VSQRTPD, which rounds exactly as
// math.Sqrt does. The len(dst)%4 leftover groups, and every group
// without AVX, take the scalar loop itself, so the AVX body is
// bit-identical to it.
func GroupNorms(dst, x []float64, group int, eps float64) {
	if group <= 0 || len(x) != len(dst)*group {
		panic(fmt.Sprintf("mat: GroupNorms: %d inputs do not make %d groups of %d", len(x), len(dst), group))
	}
	n := 0
	if useAVX {
		n = len(dst) &^ 3
		groupNormsAVX(dst[:n], x[:n*group], group, eps)
	}
	for j := n; j < len(dst); j++ {
		var s float64
		for _, v := range x[j*group : (j+1)*group] {
			s += v * v
		}
		dst[j] = math.Sqrt(s + eps)
	}
}

// ArgMax returns the index of the largest element of x (-1 for empty x).
func ArgMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(x); i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}

// LogSumExp returns log(Σ exp(x_i)) computed stably.
func LogSumExp(x []float64) float64 {
	if len(x) == 0 {
		return math.Inf(-1)
	}
	m := x[ArgMax(x)]
	if math.IsInf(m, -1) {
		return m
	}
	var s float64
	for _, v := range x {
		s += math.Exp(v - m)
	}
	return m + math.Log(s)
}

// Softmax writes the softmax of x into dst (which may alias x) and
// returns the probability of the argmax, i.e. the prediction confidence.
func Softmax(dst, x []float64) float64 {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("mat: Softmax length mismatch %d vs %d", len(dst), len(x)))
	}
	lse := LogSumExp(x)
	best := 0.0
	for i, v := range x {
		p := math.Exp(v - lse)
		dst[i] = p
		if p > best {
			best = p
		}
	}
	return best
}

// LogSoftmax writes log-softmax of x into dst (may alias x).
func LogSoftmax(dst, x []float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("mat: LogSoftmax length mismatch %d vs %d", len(dst), len(x)))
	}
	lse := LogSumExp(x)
	for i, v := range x {
		dst[i] = v - lse
	}
}
