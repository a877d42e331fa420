package dnn_test

import (
	"math"
	"testing"
	_ "unsafe" // for go:linkname

	"repro/internal/dnn"
	"repro/internal/mat"
)

// useAVX is mat's unexported choice of kernel body, set at init from
// CPUID; the dense panels read it directly and the sparse and BSR
// kernels through mat.HasAVX. FuzzKernels clears it around the
// portable columns so they score the dense, sparse and bsr plans
// through the portable Go bodies; off AVX hosts it is already false and
// the columns repeat the others.
//
//go:linkname useAVX repro/internal/mat.useAVX
var useAVX bool

// portable runs f with every float kernel on its portable body.
func portable(f func()) {
	saved := useAVX
	defer func() { useAVX = saved }()
	useAVX = false
	f()
}

// FuzzKernels is the differential test of the float kernels: a random
// two-FC stack (every shape from 1 to 40 rows and 1 to 80 inputs, so
// every ragged last panel of the dense matvec, every ragged BSR edge
// tile and every ragged last SELL group is reachable), pruned by a
// random unstructured, 4×4-block or 8×8-block mask, must score
// bit-identically under the dense, sparse and bsr plans, each on its
// AVX and its portable body. Its non-FC column does the same for a
// random FC → p-norm → renorm → FC stack (groups of 1 to 8, 1 to 40
// pooled outputs, so every leftover of the four-group p-norm pass),
// checked against the scalar loops of scalarForward.
func FuzzKernels(f *testing.F) {
	for i := 0; i < 8; i++ {
		f.Add(int64(i), uint8(7*i+3), uint8(i), uint8(9*i+1), uint8(i), uint8(32*i), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, in, hidden, out, maskKind, keep, group uint8) {
		rng := mat.NewRNG(seed)
		fc1 := dnn.NewFC("fc1", 1+int(in)%80, 1+int(hidden)%40, 0.5, rng)
		fc2 := dnn.NewFC("fc2", fc1.OutDim(), 1+int(out)%40, 0.5, rng)
		for _, fc := range []*dnn.FC{fc1, fc2} {
			rng.FillNorm(fc.B, 0, 0.1)
			pruneRandomly(fc, rng, int(maskKind)%4, float64(keep)/255)
		}
		net := dnn.NewNetwork(fc1, fc2)

		backends := []dnn.Backend{dnn.BackendDense, dnn.BackendSparse, dnn.BackendBSR}
		execs := make([]*dnn.Exec, len(backends))
		for i, b := range backends {
			execs[i] = dnn.Compile(net, dnn.PlanConfig{Backend: b}).NewExec()
		}
		x := make([]float64, net.InDim())
		want := make([]float64, net.OutDim())
		got := make([]float64, net.OutDim())
		for frame := 0; frame < 3; frame++ {
			rng.FillNorm(x, 0, 2)
			wantLogits := append([]float64(nil), execs[0].Logits(x)...)
			execs[0].LogPosteriors(want, x)
			compare := func(name string, e *dnn.Exec) {
				if !bitsEqual(wantLogits, e.Logits(x)) {
					t.Fatalf("frame %d: %s logits differ from dense", frame, name)
				}
				e.LogPosteriors(got, x)
				if !bitsEqual(want, got) {
					t.Fatalf("frame %d: %s log-posteriors differ from dense", frame, name)
				}
			}
			for i := 1; i < len(execs); i++ {
				compare(string(backends[i]), execs[i])
			}
			portable(func() {
				compare("dense on the portable panel body", execs[0])
				compare("sparse on the portable body", execs[1])
				compare("bsr on the portable body", execs[2])
			})
		}

		g := 1 + int(group)%8
		fcA := dnn.NewFC("fcA", 1+int(in)%80, (1+int(hidden)%40)*g, 0.5, rng)
		fcB := dnn.NewFC("fcB", fcA.OutDim()/g, 1+int(out)%40, 0.5, rng)
		for _, fc := range []*dnn.FC{fcA, fcB} {
			rng.FillNorm(fc.B, 0, 0.1)
			pruneRandomly(fc, rng, int(maskKind)%4, float64(keep)/255)
		}
		pooled := dnn.NewNetwork(fcA, dnn.NewPNorm("P", fcA.OutDim(), g), dnn.NewRenorm("N", fcB.InDim()), fcB)
		x = make([]float64, pooled.InDim())
		rng.FillNorm(x, 0, 2)
		wantLogits, want := scalarForward(pooled, x)
		got = make([]float64, pooled.OutDim())
		for _, b := range backends {
			e := dnn.Compile(pooled, dnn.PlanConfig{Backend: b}).NewExec()
			check := func(body string) {
				if !bitsEqual(wantLogits, e.Logits(x)) {
					t.Fatalf("group %d: %s logits on the %s bodies differ from the scalar loops", g, b, body)
				}
				e.LogPosteriors(got, x)
				if !bitsEqual(want, got) {
					t.Fatalf("group %d: %s log-posteriors on the %s bodies differ from the scalar loops", g, b, body)
				}
			}
			check("AVX")
			portable(func() { check("portable") })
		}
	})
}

// scalarForward is the oracle of FuzzKernels' non-FC column: the
// network's logits and log-posteriors for x from the scalar loops the
// vector bodies replaced — one add chain per FC row and bias last, the
// p-norm's per-group chain and math.Sqrt, renorm's c*v, then
// mat.LogSoftmax, which has one body. The epsilons are dnn's pnormEps
// and renormEps.
func scalarForward(net *dnn.Network, x []float64) (logits, logPost []float64) {
	const eps = 1e-20
	for _, l := range net.Layers {
		y := make([]float64, l.OutDim())
		switch l := l.(type) {
		case *dnn.FC:
			for r := range y {
				y[r] = mat.Dot(l.W.Row(r), x) + l.B[r]
			}
		case *dnn.PNorm:
			for j := range y {
				var s float64
				for k := 0; k < l.Group; k++ {
					v := x[j*l.Group+k]
					s += v * v
				}
				y[j] = math.Sqrt(s + eps)
			}
		case *dnn.Renorm:
			var s float64
			for _, v := range x {
				s += v * v
			}
			c := math.Sqrt(float64(l.Dim) / (s + eps))
			for i, v := range x {
				y[i] = c * v
			}
		default:
			panic("scalarForward: unexpected layer")
		}
		x = y
	}
	logPost = make([]float64, len(x))
	mat.LogSoftmax(logPost, x)
	return x, logPost
}

// pruneRandomly installs a random mask keeping each weight (kind 1) or
// each 4×4 / 8×8 tile (kinds 2, 3) with probability keep; kind 0 leaves
// the layer dense.
func pruneRandomly(fc *dnn.FC, rng *mat.RNG, kind int, keep float64) {
	if kind == 0 {
		return
	}
	rows, cols := fc.OutDim(), fc.InDim()
	fc.Mask = make([]bool, rows*cols)
	block := []int{1: 1, 2: 4, 3: 8}[kind]
	for r0 := 0; r0 < rows; r0 += block {
		for c0 := 0; c0 < cols; c0 += block {
			if rng.Float64() >= keep {
				continue
			}
			for r := r0; r < min(r0+block, rows); r++ {
				for c := c0; c < min(c0+block, cols); c++ {
					fc.Mask[r*cols+c] = true
				}
			}
		}
	}
	if block > 1 {
		fc.BlockSize = block
	}
	fc.ApplyMask()
}
