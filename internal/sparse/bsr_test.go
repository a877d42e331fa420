package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// blockPrunedMatrix fills a dense matrix with normals and then zeroes
// whole block×block tiles, keeping each with probability keep — the
// shape BlockPrune leaves behind.
func blockPrunedMatrix(rng *mat.RNG, rows, cols, block int, keep float64) *mat.Matrix {
	m := mat.NewMatrix(rows, cols)
	for br := 0; br*block < rows; br++ {
		for bc := 0; bc*block < cols; bc++ {
			if rng.Float64() >= keep {
				continue
			}
			for r := br * block; r < (br+1)*block && r < rows; r++ {
				for c := bc * block; c < (bc+1)*block && c < cols; c++ {
					m.Set(r, c, rng.NormFloat64())
				}
			}
		}
	}
	return m
}

func bitsEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestBSRRoundTrip(t *testing.T) {
	rng := mat.NewRNG(7)
	for trial := 0; trial < 30; trial++ {
		block := []int{1, 2, 3, 4, 5, 8}[trial%6]
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
		m := blockPrunedMatrix(rng, rows, cols, block, 0.4)
		l := FromDenseBSR(m, nil, block)
		back := l.ToDense()
		for i := range m.Data {
			if m.Data[i] != back.Data[i] {
				t.Fatalf("block=%d %dx%d: round trip mismatch at %d", block, rows, cols, i)
			}
		}
		if l.NNZ() != m.NNZ() {
			t.Fatalf("NNZ mismatch: %d vs %d", l.NNZ(), m.NNZ())
		}
	}
}

// TestBSRMatVecBitIdenticalToDense is the kernel's core contract: on a
// block-pruned matrix the BSR accumulation visits exactly the dense
// column order, so outputs match dense (and therefore CSR, which has
// the same contract) to the last bit.
func TestBSRMatVecBitIdenticalToDense(t *testing.T) {
	for _, block := range []int{4, 8, 3} {
		block := block
		f := func(seed int64) bool {
			rng := mat.NewRNG(seed)
			rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
			m := blockPrunedMatrix(rng, rows, cols, block, 0.35)
			bias := make([]float64, rows)
			rng.FillNorm(bias, 0, 1)
			x := make([]float64, cols)
			rng.FillNorm(x, 0, 1)

			dense := make([]float64, rows)
			m.MatVec(dense, x)
			for i := range dense {
				dense[i] += bias[i]
			}
			csr := make([]float64, rows)
			FromDense(m, bias).MatVec(csr, x)
			bsr := make([]float64, rows)
			FromDenseBSR(m, bias, block).MatVec(bsr, x)
			return bitsEq(dense, bsr) && bitsEq(csr, bsr)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
			t.Fatalf("block=%d: %v", block, err)
		}
	}
}

// TestBSRStorageBeatsCSROnBlockPruned pins the storage half of the
// structured-sparsity bargain: at equal block-pruned weights the BSR
// form pays one index per tile instead of one per nonzero, so its
// storage footprint is strictly smaller at both 70% and 90% sparsity.
func TestBSRStorageBeatsCSROnBlockPruned(t *testing.T) {
	const weightBits, indexBits = 32, 12
	rng := mat.NewRNG(3)
	for _, keep := range []float64{0.3, 0.1} { // 70% and 90% block sparsity
		m := blockPrunedMatrix(rng, 256, 512, 8, keep)
		csr := FromDense(m, nil).StorageBits(weightBits, indexBits)
		bsr := FromDenseBSR(m, nil, 8).StorageBits(weightBits, indexBits)
		if bsr >= csr {
			t.Fatalf("keep=%.2f: BSR storage %d not below CSR %d", keep, bsr, csr)
		}
		// The index overhead specifically shrinks by ~Block²: CSR pays
		// indexBits per nonzero, BSR pays indexBits per 64-weight tile.
		if saved := csr - bsr; saved < int64(float64(FromDense(m, nil).NNZ())*float64(indexBits)*0.9) {
			t.Fatalf("keep=%.2f: expected ~all per-weight index bits saved, got %d", keep, saved)
		}
	}
}

func TestBSRStorageBitsFormula(t *testing.T) {
	m := mat.NewMatrix(8, 16)
	m.Set(0, 0, 1)  // tile (0,0)
	m.Set(3, 9, 2)  // tile (0,2) with block 4
	m.Set(5, 15, 3) // tile (1,3)
	l := FromDenseBSR(m, nil, 4)
	if l.BlockCount() != 3 {
		t.Fatalf("BlockCount = %d, want 3", l.BlockCount())
	}
	// 3 tiles * (16 weights * 32 + 12 index) + 8 rows * 32 bias
	if got := l.StorageBits(32, 12); got != 3*(16*32+12)+8*32 {
		t.Fatalf("StorageBits = %d", got)
	}
}

func TestBSREdgeBlocks(t *testing.T) {
	// Dimensions deliberately not multiples of the block edge: the
	// right and bottom edge tiles are zero-padded and must neither
	// read out of bounds nor write rows past Rows.
	rng := mat.NewRNG(19)
	for _, dims := range [][2]int{{13, 21}, {7, 9}, {1, 8}, {8, 1}, {9, 65}} {
		for _, block := range []int{4, 8} {
			m := randomSparseMatrix(rng, dims[0], dims[1], 0.5)
			bias := make([]float64, dims[0])
			rng.FillNorm(bias, 0, 1)
			x := make([]float64, dims[1])
			rng.FillNorm(x, 0, 1)

			dense := make([]float64, dims[0])
			m.MatVec(dense, x)
			for i := range dense {
				dense[i] += bias[i]
			}
			got := make([]float64, dims[0])
			FromDenseBSR(m, bias, block).MatVec(got, x)
			if !bitsEq(dense, got) {
				t.Fatalf("%dx%d block=%d: edge-tile mismatch", dims[0], dims[1], block)
			}
		}
	}
}

func TestBSRMatVecPanicsOnMismatch(t *testing.T) {
	l := FromDenseBSR(mat.NewMatrix(8, 8), nil, 4)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	l.MatVec(make([]float64, 8), make([]float64, 5))
}

func TestFromDenseBSRRejectsBadBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	FromDenseBSR(mat.NewMatrix(4, 4), nil, 0)
}
