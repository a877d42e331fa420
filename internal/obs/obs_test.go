package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry("t")
	r.SetEnabled(true)
	c := NewCounterIn(r, "c", "ops", "test counter")
	const goroutines, per = 16, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	r := NewRegistry("t")
	r.SetEnabled(true)
	g := NewGaugeIn(r, "g", "units", "test gauge")
	const goroutines, per = 8, 5000
	var wg sync.WaitGroup
	for k := 0; k < goroutines; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				g.Add(1)
				g.Add(-0.5)
			}
		}()
	}
	wg.Wait()
	want := float64(goroutines*per) * 0.5
	if got := g.Value(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("gauge = %g, want %g", got, want)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry("t")
	r.SetEnabled(true)
	h := NewHistogramIn(r, "h", "units", "test histogram", []float64{1, 2, 4, 8})
	const goroutines, per = 8, 4000
	var wg sync.WaitGroup
	for k := 0; k < goroutines; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(k%4) + 1) // 1, 2, 3, 4
			}
		}(k)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("count = %d, want %d", got, goroutines*per)
	}
	// per value: 2 goroutines * per observations
	// buckets (<=1, <=2, <=4, <=8, +Inf): 1 -> b0; 2 -> b1; 3,4 -> b2
	if got := h.Bucket(0); got != 2*per {
		t.Fatalf("bucket 0 = %d, want %d", got, 2*per)
	}
	if got := h.Bucket(1); got != 2*per {
		t.Fatalf("bucket 1 = %d, want %d", got, 2*per)
	}
	if got := h.Bucket(2); got != 4*per {
		t.Fatalf("bucket 2 = %d, want %d", got, 4*per)
	}
	wantSum := float64(goroutines/4*per) * (1 + 2 + 3 + 4)
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Fatalf("sum = %g, want %g", got, wantSum)
	}
	if q := h.Quantile(0.5); q != 2 {
		t.Fatalf("p50 = %g, want 2", q)
	}
	if q := h.Quantile(0.99); q != 4 {
		t.Fatalf("p99 = %g, want 4", q)
	}
}

func TestDisabledDropsEverything(t *testing.T) {
	r := NewRegistry("t")
	c := NewCounterIn(r, "c", "ops", "c")
	g := NewGaugeIn(r, "g", "u", "g")
	h := NewHistogramIn(r, "h", "u", "h", []float64{1})
	tm := NewTimerIn(r, "t", "t")
	c.Add(5)
	g.Set(3)
	h.Observe(7)
	sp := tm.Start()
	sp.Stop()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || tm.Histogram().Count() != 0 {
		t.Fatalf("disabled registry recorded: c=%d g=%g h=%d t=%d",
			c.Value(), g.Value(), h.Count(), tm.Histogram().Count())
	}
	if (sp != Span{}) {
		t.Fatal("disabled timer returned a live span")
	}
}

func TestRegisterIdempotentAndTypeChecked(t *testing.T) {
	r := NewRegistry("t")
	a := NewCounterIn(r, "x", "u", "first")
	b := NewCounterIn(r, "x", "u", "second")
	if a != b {
		t.Fatal("re-registering a counter under the same name must return the original")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering as a different type must panic")
		}
	}()
	NewGaugeIn(r, "x", "u", "boom")
}

func TestTimerRecordsSeconds(t *testing.T) {
	r := NewRegistry("t")
	r.SetEnabled(true)
	tm := NewTimerIn(r, "t", "t")
	sp := tm.Start()
	sp.Stop()
	h := tm.Histogram()
	if h.Count() != 1 {
		t.Fatalf("timer count = %d, want 1", h.Count())
	}
	if h.Sum() < 0 || h.Sum() > 60 {
		t.Fatalf("implausible elapsed seconds %g", h.Sum())
	}
}

func TestSnapshotAndJSON(t *testing.T) {
	r := NewRegistry("snap")
	r.SetEnabled(true)
	NewCounterIn(r, "a.count", "ops", "a").Add(3)
	NewGaugeIn(r, "b.gauge", "J", "b").Set(2.5)
	NewHistogramIn(r, "c.hist", "u", "c", []float64{1, 2}).Observe(1.5)

	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Registry string                    `json:"registry"`
		Enabled  bool                      `json:"enabled"`
		Metrics  map[string]map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, sb.String())
	}
	if got.Registry != "snap" || !got.Enabled {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.Metrics["a.count"]["value"].(float64) != 3 {
		t.Fatalf("counter snapshot = %v", got.Metrics["a.count"])
	}
	if got.Metrics["b.gauge"]["value"].(float64) != 2.5 {
		t.Fatalf("gauge snapshot = %v", got.Metrics["b.gauge"])
	}
	buckets := got.Metrics["c.hist"]["buckets"].(map[string]any)
	if buckets["2"].(float64) != 1 || buckets["+Inf"].(float64) != 1 {
		t.Fatalf("histogram buckets = %v", buckets)
	}
}

func TestHandlerServesMetricsAndText(t *testing.T) {
	r := NewRegistry("web")
	r.SetEnabled(true)
	NewCounterIn(r, "hits", "ops", "hits").Add(7)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["registry"] != "web" {
		t.Fatalf("/metrics registry = %v", body["registry"])
	}

	resp2, err := srv.Client().Get(srv.URL + "/metrics/text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	text, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "hits") {
		t.Fatalf("/metrics/text missing counter: %q", text)
	}
}

// TestPackageLevelStart checks that one Start/Stop adds exactly one
// sample. The span's histogram lives in Default for the whole test
// binary, so under -count > 1 it already holds the earlier runs'
// samples; the test compares counts before and after.
func TestPackageLevelStart(t *testing.T) {
	Enable()
	defer Disable()
	var before int64
	if h, ok := Default.Get("obs_test.span").(*Histogram); ok {
		before = h.Count()
	}
	sp := Start("obs_test.span")
	sp.Stop()
	tm, ok := Default.Get("obs_test.span").(*Histogram)
	if !ok || tm.Count() != before+1 {
		t.Fatalf("package-level Start did not add one sample to %d (metric=%v)", before, Default.Get("obs_test.span"))
	}
}

func TestCountBuckets(t *testing.T) {
	b := CountBuckets(16)
	want := []float64{1, 2, 4, 8, 16}
	if len(b) != len(want) {
		t.Fatalf("bounds = %v, want %v", b, want)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", b, want)
		}
	}
}
