package obs

import (
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTimerFamilyRegistersOneName(t *testing.T) {
	r := NewRegistry("tf")
	f := NewTimerFamilyIn(r, "x.kernel_seconds", "kernel", "per-kernel time")
	f.With("dense")
	f.With("bsr")
	names := r.Names()
	if len(names) != 1 || names[0] != "x.kernel_seconds" {
		t.Fatalf("registry names = %v, want just the family name", names)
	}
	if f2 := NewTimerFamilyIn(r, "x.kernel_seconds", "kernel", "per-kernel time"); f2 != f {
		t.Fatal("re-registering must return the existing family")
	}
	if f.Label() != "kernel" {
		t.Fatalf("Label() = %q", f.Label())
	}
}

func TestTimerFamilyRecordsPerChild(t *testing.T) {
	r := NewRegistry("tf")
	r.SetEnabled(true)
	f := NewTimerFamilyIn(r, "x.kernel_seconds", "kernel", "per-kernel time")
	d := f.With("dense")
	if again := f.With("dense"); again != d {
		t.Fatal("With must return the same child for the same value")
	}
	s := d.Start()
	time.Sleep(time.Millisecond)
	s.Stop()
	f.With("sparse").Start().Stop()

	counts := f.Values()
	if n := counts["dense"]; n != 1 {
		t.Fatalf("dense child count = %d, want 1", n)
	}
	if n := counts["sparse"]; n != 1 {
		t.Fatalf("sparse child count = %d, want 1", n)
	}
	if f.Total() != 2 {
		t.Fatalf("family Total() = %d, want 2", f.Total())
	}
	if got := d.Histogram().Name(); got != "x.kernel_seconds{kernel=dense}" {
		t.Fatalf("child name = %q", got)
	}
}

func TestTimerFamilyDisabledDrops(t *testing.T) {
	r := NewRegistry("tf")
	f := NewTimerFamilyIn(r, "x.kernel_seconds", "kernel", "per-kernel time")
	f.With("dense").Start().Stop()
	if f.Total() != 0 {
		t.Fatalf("disabled family recorded %d observations", f.Total())
	}
}

func TestTimerFamilyConcurrentWith(t *testing.T) {
	r := NewRegistry("tf")
	r.SetEnabled(true)
	f := NewTimerFamilyIn(r, "x.kernel_seconds", "kernel", "per-kernel time")
	var wg sync.WaitGroup
	names := []string{"dense", "sparse", "bsr", "-"}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				f.With(names[(g+i)%len(names)]).Start().Stop()
			}
		}(g)
	}
	wg.Wait()
	if f.Total() != 800 {
		t.Fatalf("family Total() = %d, want 800", f.Total())
	}
	if len(f.Values()) != len(names) {
		t.Fatalf("children = %d, want %d", len(f.Values()), len(names))
	}
}

func TestTimerFamilySnapshotAndText(t *testing.T) {
	r := NewRegistry("tf")
	r.SetEnabled(true)
	f := NewTimerFamilyIn(r, "x.kernel_seconds", "kernel", "per-kernel time")
	f.With("bsr").Start().Stop()
	c := NewCounterFamilyIn(r, "x.model_frames", "frames", "model", "per-model frames")
	c.With("beta").Add(7)
	c.With("alpha").Inc()

	snap := f.snapshot()
	if snap["type"] != "timer_family" || snap["label"] != "kernel" || snap["count"] != int64(1) {
		t.Fatalf("snapshot = %v", snap)
	}
	if cs := c.snapshot(); cs["type"] != "counter_family" || cs["total"] != int64(8) {
		t.Fatalf("counter family snapshot = %v", cs)
	}
	values, ok := snap["values"].(map[string]any)
	if !ok || values["bsr"] == nil {
		t.Fatalf("snapshot values = %v", snap["values"])
	}

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "timer_family") || !strings.Contains(sb.String(), "bsr{n=1") {
		t.Fatalf("WriteText missing timer_family line:\n%s", sb.String())
	}
	if !regexp.MustCompile(`x\.model_frames +family +8 +frames +alpha=1 beta=7\n`).MatchString(sb.String()) {
		t.Fatalf("WriteText missing the counter family line:\n%s", sb.String())
	}
}
