package bench

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/asr"
)

// testSpec is a corpus spec small enough to generate in milliseconds:
// the tiny serving scale with the default four-profile mix.
func testSpec(utts int, seed int64) CorpusSpec {
	return SpecFor(asr.ScaleTiny(), utts, seed)
}

func TestCorpusDeterminism(t *testing.T) {
	a, err := Generate(testSpec(32, 42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testSpec(32, 42))
	if err != nil {
		t.Fatal(err)
	}
	if ha, hb := a.Hash(), b.Hash(); ha != hb {
		t.Fatalf("same-seed corpora hash %016x vs %016x", ha, hb)
	}
	if !reflect.DeepEqual(a.Utts, b.Utts) {
		t.Fatal("same-seed corpora differ beyond the hash")
	}
	c, err := Generate(testSpec(32, 43))
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() == c.Hash() {
		t.Fatal("different seeds produced identical corpora")
	}
	if a.TotalFrames() <= 0 {
		t.Fatalf("TotalFrames = %d, want > 0", a.TotalFrames())
	}
	var sum int
	for i := range a.Utts {
		sum += len(a.Utts[i].Frames)
	}
	if sum != a.TotalFrames() {
		t.Fatalf("TotalFrames = %d, frames sum to %d", a.TotalFrames(), sum)
	}
}

func TestCorpusProfileMix(t *testing.T) {
	c, err := Generate(testSpec(200, 7))
	if err != nil {
		t.Fatal(err)
	}
	counts := c.ProfileCounts()
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 200 {
		t.Fatalf("profile counts sum to %d, want 200", total)
	}
	// A 4:2:1:1 mix over 200 draws should populate all four profiles.
	for _, name := range []string{"baseline", "noisy", "wide-vocab", "long-utt"} {
		if counts[name] == 0 {
			t.Errorf("profile %q drew no utterances: %v", name, counts)
		}
	}
	if counts["baseline"] <= counts["wide-vocab"] {
		t.Errorf("baseline (weight 4) drew %d <= wide-vocab (weight 1) %d",
			counts["baseline"], counts["wide-vocab"])
	}
}

func TestApplyMix(t *testing.T) {
	spec := testSpec(64, 5)
	if err := spec.ApplyMix(map[string]float64{"nosuch": 1}); err == nil {
		t.Fatal("unknown profile accepted")
	} else if !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("unknown-profile error %q does not name the profile", err)
	}
	if err := spec.ApplyMix(map[string]float64{"noisy": -1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	// Zero weight removes the profile from the mix entirely.
	err := spec.ApplyMix(map[string]float64{"noisy": 0, "wide-vocab": 0, "long-utt": 0})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	counts := c.ProfileCounts()
	if len(counts) != 1 || counts["baseline"] != 64 {
		t.Fatalf("mix baseline-only drew %v, want 64 baseline", counts)
	}
}

func TestCorpusSpliced(t *testing.T) {
	spec := testSpec(4, 11)
	c, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := spec.World.FeatDim * (2*spec.Context + 1)
	fr := c.Spliced(0)
	if len(fr) != len(c.Utts[0].Frames) {
		t.Fatalf("Spliced frame count %d, want %d", len(fr), len(c.Utts[0].Frames))
	}
	if len(fr[0]) != want {
		t.Fatalf("spliced dim %d, want %d", len(fr[0]), want)
	}
}

func TestScheduleDeterminism(t *testing.T) {
	a := Schedule(100, 50, 9)
	b := Schedule(100, 50, 9)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same-seed schedules differ")
	}
	if ScheduleHash(a) != ScheduleHash(b) {
		t.Fatal("same-seed schedule hashes differ")
	}
	if ScheduleHash(a) == ScheduleHash(Schedule(100, 50, 10)) {
		t.Fatal("different-seed schedules collide")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("offsets not monotone at %d: %v < %v", i, a[i], a[i-1])
		}
	}
	// Mean inter-arrival gap should be near 1/rate = 20ms over 100 draws.
	mean := a[len(a)-1].Seconds() / float64(len(a))
	if mean < 0.01 || mean > 0.04 {
		t.Errorf("mean gap %.4fs implausible for rate 50/s", mean)
	}
}

func TestScheduleBurst(t *testing.T) {
	for _, rate := range []float64{0, -1} {
		for _, d := range Schedule(5, rate, 1) {
			if d != 0 {
				t.Fatalf("rate %v schedule has nonzero offset %v", rate, d)
			}
		}
	}
	if Schedule(0, 10, 1) != nil {
		t.Fatal("n=0 schedule not nil")
	}
}

func TestSummarizeLatency(t *testing.T) {
	samples := []time.Duration{
		30 * time.Millisecond,
		10 * time.Millisecond,
		50 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
	}
	l := SummarizeLatency(samples)
	// Nearest rank over sorted {10,20,30,40,50}: p50 -> idx round(0.5*4)=2,
	// p95/p99 -> idx 4. Mean is 30.
	if l.MeanMS != 30 || l.P50MS != 30 || l.P95MS != 50 || l.P99MS != 50 || l.MaxMS != 50 {
		t.Fatalf("summary %+v, want mean/p50 30 and p95/p99/max 50", l)
	}
	if got := (Latency{}); SummarizeLatency(nil) != got {
		t.Fatal("empty sample did not summarize to zero")
	}
	s := l.String()
	for _, want := range []string{"mean 30.0ms", "p50 30.0ms", "p99 50.0ms", "max 50.0ms"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
