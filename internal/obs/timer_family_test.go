package obs

import (
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

	timers := f.Timers()
	if n := timers["dense"].Histogram().Count(); n != 1 {
		t.Fatalf("dense child count = %d, want 1", n)
	}
	if n := timers["sparse"].Histogram().Count(); n != 1 {
		t.Fatalf("sparse child count = %d, want 1", n)
	}
	if f.Count() != 2 {
		t.Fatalf("family Count() = %d, want 2", f.Count())
	}
	if got := timers["dense"].Histogram().Name(); got != "x.kernel_seconds{kernel=dense}" {
		t.Fatalf("child name = %q", got)
	}
}

func TestTimerFamilyDisabledDrops(t *testing.T) {
	r := NewRegistry("tf")
	f := NewTimerFamilyIn(r, "x.kernel_seconds", "kernel", "per-kernel time")
	f.With("dense").Start().Stop()
	if f.Count() != 0 {
		t.Fatalf("disabled family recorded %d observations", f.Count())
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
	if f.Count() != 800 {
		t.Fatalf("family Count() = %d, want 800", f.Count())
	}
	if len(f.Timers()) != len(names) {
		t.Fatalf("children = %d, want %d", len(f.Timers()), len(names))
	}
}

func TestTimerFamilySnapshotAndText(t *testing.T) {
	r := NewRegistry("tf")
	r.SetEnabled(true)
	f := NewTimerFamilyIn(r, "x.kernel_seconds", "kernel", "per-kernel time")
	f.With("bsr").Start().Stop()

	snap := f.snapshot()
	if snap["type"] != "timer_family" || snap["label"] != "kernel" {
		t.Fatalf("snapshot = %v", snap)
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
}
