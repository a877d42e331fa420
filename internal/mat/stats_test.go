package mat

import (
	"math"
	"testing"
)

func TestMeanStdDev(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(x) != 5 {
		t.Fatalf("Mean = %v", Mean(x))
	}
	if !almostEqual(StdDev(x), 2, 1e-12) {
		t.Fatalf("StdDev = %v", StdDev(x))
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Fatalf("empty input should give 0")
	}
}

// TestQuantile pins the nearest-rank definition against hand-computed
// values: for n samples the p-quantile is sorted[round(p*(n-1))]. The
// fixture is the contract every latency report shares (asr pipeline
// tails, the benchmark's summaries), so a change here is a change to
// all of them at once.
func TestQuantile(t *testing.T) {
	// n=5, sorted 10..50: index = round(p*4)
	x := []float64{30, 10, 50, 20, 40}
	cases := []struct{ p, want float64 }{
		{0, 10},     // round(0) = 0
		{0.5, 30},   // round(2) = 2
		{0.6, 30},   // round(2.4) = 2
		{0.95, 50},  // round(3.8) = 4
		{0.99, 50},  // round(3.96) = 4
		{1, 50},     // round(4) = 4
		{-0.5, 10},  // clamps low
		{1.5, 50},   // clamps high
		{0.125, 20}, // round(0.5) = 1 (half rounds away from zero)
	}
	for _, c := range cases {
		if got := Quantile(x, c.p); got != c.want {
			t.Fatalf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// n=10, sorted 1..10: p99 -> round(0.99*9)=round(8.91)=9 -> 10,
	// p95 -> round(8.55)=9 -> 10, p90 -> round(8.1)=8 -> 9.
	y := []float64{6, 3, 8, 1, 10, 2, 9, 4, 7, 5}
	for _, c := range []struct{ p, want float64 }{{0.99, 10}, {0.95, 10}, {0.9, 9}, {0.5, 6}} {
		if got := Quantile(y, c.p); got != c.want {
			t.Fatalf("Quantile(10 samples, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatalf("empty quantile should be 0")
	}
	// does not mutate input
	z := []float64{3, 1, 2}
	Quantile(z, 0.5)
	if z[0] != 3 || z[1] != 1 || z[2] != 2 {
		t.Fatalf("input mutated: %v", z)
	}
	if QuantileSorted([]float64{1, 2, 3}, 0.5) != 2 {
		t.Fatalf("QuantileSorted broken")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	if NewRNG(1).Float64() == NewRNG(2).Float64() {
		t.Fatalf("different seeds should differ (almost surely)")
	}
}

func TestRNGGeometric(t *testing.T) {
	rng := NewRNG(9)
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		d := rng.Geometric(0.5)
		if d < 1 {
			t.Fatalf("Geometric returned %d < 1", d)
		}
		sum += float64(d)
	}
	mean := sum / float64(n)
	if math.Abs(mean-2) > 0.1 { // E[geom(0.5)] = 1/(1-0.5) = 2
		t.Fatalf("Geometric mean = %v, want ~2", mean)
	}
}

func TestRNGCategorical(t *testing.T) {
	rng := NewRNG(10)
	w := []float64{0, 1, 0}
	for i := 0; i < 50; i++ {
		if rng.Categorical(w) != 1 {
			t.Fatalf("Categorical should always pick index 1")
		}
	}
	counts := make([]int, 2)
	w = []float64{1, 3}
	n := 40000
	for i := 0; i < n; i++ {
		counts[rng.Categorical(w)]++
	}
	frac := float64(counts[1]) / float64(n)
	if math.Abs(frac-0.75) > 0.02 {
		t.Fatalf("Categorical fraction = %v, want ~0.75", frac)
	}
}

func TestRNGCategoricalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for zero weights")
		}
	}()
	NewRNG(1).Categorical([]float64{0, 0})
}

func TestRNGFork(t *testing.T) {
	a := NewRNG(5)
	f1 := a.Fork()
	// forked stream must be deterministic given the parent state
	b := NewRNG(5)
	f2 := b.Fork()
	for i := 0; i < 10; i++ {
		if f1.Float64() != f2.Float64() {
			t.Fatalf("forks from identical parents diverged")
		}
	}
}
