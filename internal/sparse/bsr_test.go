package sparse

import (
	"math"
	"testing"
	"testing/quick"
	_ "unsafe" // for go:linkname

	"repro/internal/mat"
)

// useAVX is mat's unexported choice of kernel body, set at init from
// CPUID; BSR.MatVec and SELL.MatVec read it through mat.HasAVX. bodies
// flips it to run a kernel on each body.
//
//go:linkname useAVX repro/internal/mat.useAVX
var useAVX bool

// bodies runs f once per kernel body this machine can execute: the
// portable Go bodies always, the AVX body where the CPU has it.
func bodies(f func(body string)) {
	saved := useAVX
	defer func() { useAVX = saved }()
	useAVX = false
	f("portable")
	if saved {
		useAVX = true
		f("avx")
	}
}

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
// column order, so outputs match dense (and therefore SELL, which has
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
			sell := make([]float64, rows)
			FromDenseSELL(m, bias).MatVec(sell, x)
			bsr := make([]float64, rows)
			FromDenseBSR(m, bias, block).MatVec(bsr, x)
			return bitsEq(dense, bsr) && bitsEq(sell, bsr)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
			t.Fatalf("block=%d: %v", block, err)
		}
	}
}

// TestBSRBodiesMatchMatVec pins BSR.MatVec, through both bodies,
// bit for bit against Matrix.MatVec plus the bias on every shape from
// 1 to 40 rows and 1 to 80 columns at block edges 3, 4 and 8: ragged
// bottom block rows, right-edge tiles, every third block row empty,
// and a third of the shapes with no stored tile at all. Weights and
// inputs mix signed zeros, subnormals and magnitudes whose partial sums
// overflow to ±Inf and then NaN, as in mat's panel test. Inputs stay
// finite, so the zero tiles BSR skips add exact zeros in the dense sum.
func TestBSRBodiesMatchMatVec(t *testing.T) {
	specials := []float64{
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -4 * math.SmallestNonzeroFloat64,
		0x1p-1022, 1e308, -1e308, math.MaxFloat64, 1, -1, 1e-300, 3,
	}
	rng := mat.NewRNG(23)
	value := func() float64 {
		if rng.Intn(3) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	for _, block := range []int{3, 4, 8} {
		for rows := 1; rows <= 40; rows++ {
			for cols := 1; cols <= 80; cols++ {
				keep := []float64{0, 0.2, 0.7}[(rows+cols)%3]
				m := mat.NewMatrix(rows, cols)
				for r := 0; r < rows; r++ {
					for c := 0; c < cols; c++ {
						m.Set(r, c, value())
					}
				}
				for br := 0; br*block < rows; br++ {
					for bc := 0; bc*block < cols; bc++ {
						if br%3 != 1 && rng.Float64() < keep {
							continue
						}
						for r := br * block; r < min((br+1)*block, rows); r++ {
							for c := bc * block; c < min((bc+1)*block, cols); c++ {
								m.Set(r, c, 0)
							}
						}
					}
				}
				bias := make([]float64, rows)
				x := make([]float64, cols)
				for i := range bias {
					bias[i] = value()
				}
				for i := range x {
					x[i] = value()
				}
				want := make([]float64, rows)
				m.MatVec(want, x)
				for i := range want {
					want[i] += bias[i]
				}
				l := FromDenseBSR(m, bias, block)
				got := make([]float64, rows)
				bodies(func(body string) {
					mat.Fill(got, math.NaN())
					l.MatVec(got, x)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s body, block %d, %dx%d (%d tiles) row %d: BSR %v (%#x), Matrix %v (%#x)",
								body, block, rows, cols, l.BlockCount(), i,
								got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
						}
					}
				})
			}
		}
	}
}

// BenchmarkBSRMatVec runs an 8×8 BSR layer with about 10% of its tiles
// stored, 400×80 like the served FC2, through each body this machine
// has; mat's BenchmarkPanelsMatVec is the dense layer of that shape.
func BenchmarkBSRMatVec(b *testing.B) {
	rng := mat.NewRNG(1)
	l := FromDenseBSR(blockPrunedMatrix(rng, 400, 80, 8, 0.1), nil, 8)
	x := make([]float64, l.ColsDim)
	rng.FillNorm(x, 0, 1)
	dst := make([]float64, l.Rows)
	bodies(func(body string) {
		b.Run(body, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.MatVec(dst, x)
			}
		})
	})
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
