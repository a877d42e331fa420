package sparse

import (
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func randomSparseMatrix(rng *mat.RNG, rows, cols int, density float64) *mat.Matrix {
	m := mat.NewMatrix(rows, cols)
	for i := range m.Data {
		if rng.Float64() < density {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

func TestFromDenseRoundTrip(t *testing.T) {
	rng := mat.NewRNG(1)
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(10), 1+rng.Intn(10)
		m := randomSparseMatrix(rng, rows, cols, 0.3)
		l := FromDense(m, nil)
		back := l.ToDense()
		for i := range m.Data {
			if m.Data[i] != back.Data[i] {
				t.Fatalf("round trip mismatch at %d", i)
			}
		}
		if l.NNZ() != m.NNZ() {
			t.Fatalf("NNZ mismatch: %d vs %d", l.NNZ(), m.NNZ())
		}
	}
}

// TestSparseMatVecMatchesDense runs random unstructured-sparse layers
// through the SELL kernel, the compute layout of a CSR layer, and
// compares every output bit for bit with the dense sum plus the bias.
func TestSparseMatVecMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := mat.NewRNG(seed)
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		m := randomSparseMatrix(rng, rows, cols, 0.4)
		bias := make([]float64, rows)
		rng.FillNorm(bias, 0, 1)
		l := FromDenseSELL(m, bias)

		x := make([]float64, cols)
		rng.FillNorm(x, 0, 1)
		dense := make([]float64, rows)
		m.MatVec(dense, x)
		for i := range dense {
			dense[i] += bias[i]
		}
		sp := make([]float64, rows)
		l.MatVec(sp, x)
		return bitsEq(dense, sp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRowAccessors(t *testing.T) {
	m := mat.NewMatrix(2, 3)
	m.Set(0, 1, 5)
	m.Set(1, 0, 7)
	m.Set(1, 2, 9)
	l := FromDense(m, nil)
	if l.RowNNZ(0) != 1 || l.RowNNZ(1) != 2 {
		t.Fatalf("RowNNZ wrong: %d %d", l.RowNNZ(0), l.RowNNZ(1))
	}
	w, c := l.Row(1)
	if len(w) != 2 || c[0] != 0 || c[1] != 2 || w[0] != 7 || w[1] != 9 {
		t.Fatalf("Row(1) = %v %v", w, c)
	}
	if d := l.Density(); d != 0.5 {
		t.Fatalf("Density = %v", d)
	}
}

func TestStorageBits(t *testing.T) {
	m := mat.NewMatrix(2, 4)
	m.Set(0, 0, 1)
	m.Set(1, 3, 2)
	l := FromDense(m, nil)
	// 2 nonzeros * (32+12) + 2 rows * 32 bias
	if got := l.StorageBits(32, 12); got != 2*44+2*32 {
		t.Fatalf("StorageBits = %d", got)
	}
}

func TestMatVecPanicsOnMismatch(t *testing.T) {
	l := FromDenseSELL(mat.NewMatrix(2, 3), nil)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	l.MatVec(make([]float64, 2), make([]float64, 5))
}
