package mat

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of x, or 0 for empty x.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// StdDev returns the population standard deviation of x.
func StdDev(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(x)))
}

// Quantile returns the nearest-rank p-quantile (p in 0..1) of x: the
// sorted sample at index round(p*(n-1)), clamped to the valid range.
// This is the quantile definition every latency report in the repo
// shares (asr.PipelineResult tails and the benchmark's summaries): it
// never interpolates, so the result is always an observed sample and
// is bit-reproducible from the inputs. x is not modified; empty x
// reports 0.
func Quantile(x []float64, p float64) float64 {
	if len(x) == 0 {
		return 0
	}
	sorted := append([]float64(nil), x...)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, p)
}

// QuantileSorted is Quantile over an already ascending-sorted sample,
// for callers taking several quantiles of one distribution without
// re-sorting.
func QuantileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Round(p * float64(len(sorted)-1)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
