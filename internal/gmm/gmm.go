// Package gmm implements the classical GMM acoustic model that DNNs
// displaced — the baseline family the paper's related-work section
// contrasts (Tabani et al.'s GMM scoring accelerators made "the
// Viterbi search the main bottleneck of these systems"). Each senone
// gets a diagonal-covariance Gaussian mixture trained with EM on
// labelled frames; scores are exposed as log-posteriors so the GMM
// drops into the same decoder slot as the DNN.
package gmm

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Config controls EM training.
type Config struct {
	Components int     // mixture components per senone
	Iterations int     // EM iterations
	VarFloor   float64 // variance floor for numerical stability
	Seed       int64
}

// DefaultConfig works for the synthetic worlds in this repository
// (whose emissions are single Gaussians; a couple of components
// absorb duration and splicing effects).
func DefaultConfig() Config {
	return Config{Components: 2, Iterations: 8, VarFloor: 1e-3, Seed: 1}
}

// Mixture is one senone's Gaussian mixture with diagonal covariance.
type Mixture struct {
	LogWeight []float64   // log mixture weights
	Mean      [][]float64 // component x dim
	Var       [][]float64 // component x dim
	logNorm   []float64   // cached -0.5*(d*log(2π) + Σ log var)
}

// Model is a GMM acoustic model over senone classes.
type Model struct {
	NumSenones int
	FeatDim    int
	Mix        []Mixture
	LogPrior   []float64 // senone log-priors from training counts
}

const log2Pi = 1.8378770664093453

// Train fits one mixture per senone with EM over the labelled frames.
func Train(frames [][]float64, labels []int, numSenones int, cfg Config) (*Model, error) {
	if len(frames) == 0 || len(frames) != len(labels) {
		return nil, fmt.Errorf("gmm: need equal, non-empty frames and labels")
	}
	if cfg.Components < 1 {
		return nil, fmt.Errorf("gmm: need at least one component")
	}
	if cfg.VarFloor <= 0 {
		cfg.VarFloor = 1e-3
	}
	dim := len(frames[0])
	m := &Model{
		NumSenones: numSenones,
		FeatDim:    dim,
		Mix:        make([]Mixture, numSenones),
		LogPrior:   make([]float64, numSenones),
	}

	bySenone := make([][][]float64, numSenones)
	for i, f := range frames {
		s := labels[i]
		if s < 0 || s >= numSenones {
			return nil, fmt.Errorf("gmm: label %d out of range", s)
		}
		bySenone[s] = append(bySenone[s], f)
	}
	rng := mat.NewRNG(cfg.Seed)
	for s := 0; s < numSenones; s++ {
		count := len(bySenone[s])
		// prior with add-one smoothing so unseen senones stay finite
		m.LogPrior[s] = math.Log(float64(count+1) / float64(len(frames)+numSenones))
		m.Mix[s] = fitMixture(bySenone[s], dim, cfg, rng.Fork())
	}
	return m, nil
}

// fitMixture runs k-means-seeded EM on one senone's frames.
func fitMixture(data [][]float64, dim int, cfg Config, rng *mat.RNG) Mixture {
	k := cfg.Components
	if len(data) < k*2 { // too little data: single broad component
		k = 1
	}
	mix := Mixture{
		LogWeight: make([]float64, k),
		Mean:      make([][]float64, k),
		Var:       make([][]float64, k),
	}
	if len(data) == 0 {
		// unseen senone: unit Gaussian at origin
		for c := 0; c < k; c++ {
			mix.LogWeight[c] = -math.Log(float64(k))
			mix.Mean[c] = make([]float64, dim)
			mix.Var[c] = ones(dim)
		}
		mix.refreshNorm()
		return mix
	}

	// seed: random distinct frames as means, global variance
	gmean := make([]float64, dim)
	for _, f := range data {
		mat.Axpy(1, f, gmean)
	}
	mat.Scale(gmean, 1/float64(len(data)), gmean)
	gvar := make([]float64, dim)
	for _, f := range data {
		for d := range f {
			diff := f[d] - gmean[d]
			gvar[d] += diff * diff
		}
	}
	for d := range gvar {
		gvar[d] = math.Max(gvar[d]/float64(len(data)), cfg.VarFloor)
	}
	perm := rng.Perm(len(data))
	for c := 0; c < k; c++ {
		mix.LogWeight[c] = -math.Log(float64(k))
		mix.Mean[c] = append([]float64(nil), data[perm[c%len(perm)]]...)
		mix.Var[c] = append([]float64(nil), gvar...)
	}
	mix.refreshNorm()

	resp := make([]float64, k)
	sumW := make([]float64, k)
	sumX := make([][]float64, k)
	sumXX := make([][]float64, k)
	for c := range sumX {
		sumX[c] = make([]float64, dim)
		sumXX[c] = make([]float64, dim)
	}
	for iter := 0; iter < cfg.Iterations; iter++ {
		for c := 0; c < k; c++ {
			sumW[c] = 0
			mat.Fill(sumX[c], 0)
			mat.Fill(sumXX[c], 0)
		}
		// E step
		for _, f := range data {
			for c := 0; c < k; c++ {
				resp[c] = mix.LogWeight[c] + mix.logComponent(c, f)
			}
			lse := mat.LogSumExp(resp)
			for c := 0; c < k; c++ {
				r := math.Exp(resp[c] - lse)
				sumW[c] += r
				for d := range f {
					sumX[c][d] += r * f[d]
					sumXX[c][d] += r * f[d] * f[d]
				}
			}
		}
		// M step
		for c := 0; c < k; c++ {
			if sumW[c] < 1e-8 {
				continue // dead component: leave as is
			}
			mix.LogWeight[c] = math.Log(sumW[c] / float64(len(data)))
			for d := 0; d < dim; d++ {
				mean := sumX[c][d] / sumW[c]
				mix.Mean[c][d] = mean
				v := sumXX[c][d]/sumW[c] - mean*mean
				mix.Var[c][d] = math.Max(v, cfg.VarFloor)
			}
		}
		mix.refreshNorm()
	}
	return mix
}

func (m *Mixture) refreshNorm() {
	m.logNorm = make([]float64, len(m.Mean))
	for c := range m.Mean {
		var s float64
		for _, v := range m.Var[c] {
			s += math.Log(v)
		}
		m.logNorm[c] = -0.5 * (float64(len(m.Mean[c]))*log2Pi + s)
	}
}

// logComponent returns log N(f; mean_c, var_c).
func (m *Mixture) logComponent(c int, f []float64) float64 {
	var q float64
	mean, vr := m.Mean[c], m.Var[c]
	for d, x := range f {
		diff := x - mean[d]
		q += diff * diff / vr[d]
	}
	return m.logNorm[c] - 0.5*q
}

// LogLikelihood returns log p(frame | senone).
func (m *Model) LogLikelihood(senone int, frame []float64) float64 {
	mix := &m.Mix[senone]
	best := math.Inf(-1)
	var terms []float64
	if len(mix.Mean) == 1 {
		return mix.LogWeight[0] + mix.logComponent(0, frame)
	}
	terms = make([]float64, len(mix.Mean))
	for c := range mix.Mean {
		terms[c] = mix.LogWeight[c] + mix.logComponent(c, frame)
		if terms[c] > best {
			best = terms[c]
		}
	}
	return mat.LogSumExp(terms)
}

// LogPosteriors writes log P(senone | frame) for every senone into
// dst, using Bayes' rule over the training priors — the same interface
// the DNN exposes, so the decoder accepts either model.
func (m *Model) LogPosteriors(dst, frame []float64) {
	if len(dst) != m.NumSenones {
		panic(fmt.Sprintf("gmm: dst length %d != %d senones", len(dst), m.NumSenones))
	}
	for s := 0; s < m.NumSenones; s++ {
		dst[s] = m.LogPrior[s] + m.LogLikelihood(s, frame)
	}
	lse := mat.LogSumExp(dst)
	for s := range dst {
		dst[s] -= lse
	}
}

// Classify returns the MAP senone and its posterior probability.
func (m *Model) Classify(frame []float64) (int, float64) {
	post := make([]float64, m.NumSenones)
	m.LogPosteriors(post, frame)
	best := mat.ArgMax(post)
	return best, math.Exp(post[best])
}

// Evaluate reports frame top-1 accuracy and mean confidence over a
// labelled set, mirroring dnn.Evaluate.
func (m *Model) Evaluate(frames [][]float64, labels []int) (top1, meanConfidence float64) {
	if len(frames) == 0 {
		return 0, 0
	}
	hits := 0
	var conf float64
	for i, f := range frames {
		cls, p := m.Classify(f)
		conf += p
		if cls == labels[i] {
			hits++
		}
	}
	n := float64(len(frames))
	return float64(hits) / n, conf / n
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}
