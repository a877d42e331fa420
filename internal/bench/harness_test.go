package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/asr"
	"repro/internal/decoder"
	"repro/internal/mat"
	"repro/internal/serve"
	"repro/internal/speech"
	"repro/internal/wfst"
)

// serveFixture builds the tiny corpus plus a Harness whose server
// decodes against the corpus's baseline world (untrained network —
// decoding is still deterministic, which is all the stability tests
// need).
func serveFixture(t *testing.T, utts int) (*Corpus, *Harness) {
	t.Helper()
	scale := asr.ScaleTiny()
	spec := SpecFor(scale, utts, 42)
	c, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	world, err := speech.NewWorld(scale.World)
	if err != nil {
		t.Fatal(err)
	}
	h := &Harness{
		Template: serve.Config{
			Net:         scale.Topology().Build(mat.NewRNG(7)),
			Decoder:     decoder.New(wfst.Compile(world)),
			Decode:      decoder.Config{Beam: 15, AcousticScale: 1},
			IdleTimeout: 5 * time.Second,
		},
		DrainTimeout: 10 * time.Second,
	}
	return c, h
}

func TestReplayAgainstServer(t *testing.T) {
	c, h := serveFixture(t, 12)
	addr, stop, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := stop(); err != nil {
			t.Errorf("stop: %v", err)
		}
	}()
	if err := Await(addr, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	st := Replay(c, 0, 200, 1, ReplayOptions{Addr: addr})
	if st.Failed != 0 {
		t.Fatalf("replay failed %d sessions: %s", st.Failed, st.FirstErr)
	}
	if st.Completed != 12 || st.Utts != 12 {
		t.Fatalf("completed %d/%d, want 12/12", st.Completed, st.Utts)
	}
	if st.Frames != int64(c.TotalFrames()) {
		t.Fatalf("decoded %d frames, corpus has %d", st.Frames, c.TotalFrames())
	}
	if st.Session.P99MS <= 0 || st.Frame.P99MS <= 0 {
		t.Fatalf("latency tails not measured: session %+v frame %+v", st.Session, st.Frame)
	}
	if st.FramesPerSec <= 0 || st.FramesPerSecPerCore <= 0 {
		t.Fatalf("throughput not measured: %+v", st)
	}
}

// TestSweepDeterministicFields pins the determinism split: across two
// sweeps of the same corpus, schedule seed, and server, every
// non-wall-clock field of each rung — counts, frames, transcript WER,
// sustained flag under a generous SLO — must be identical. (The
// latency numbers themselves are wall-clock and may differ.)
func TestSweepDeterministicFields(t *testing.T) {
	c, h := serveFixture(t, 10)
	addr, stop, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := stop(); err != nil {
			t.Errorf("stop: %v", err)
		}
	}()
	if err := Await(addr, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	cfg := SweepConfig{
		Rates:        []float64{400, 100}, // unsorted on purpose
		SLO:          time.Minute,         // generous: sustained == no failures
		ScheduleSeed: 3,
		Opts:         ReplayOptions{Addr: addr},
	}
	run := func() []*RunStats {
		rungs, sat := Sweep(c, cfg)
		if len(rungs) != 2 {
			t.Fatalf("sweep returned %d rungs, want 2", len(rungs))
		}
		if rungs[0].RateSessionsPerSec != 100 || rungs[1].RateSessionsPerSec != 400 {
			t.Fatalf("rates not sorted ascending: %v then %v",
				rungs[0].RateSessionsPerSec, rungs[1].RateSessionsPerSec)
		}
		if sat.Found {
			t.Fatal("saturation 'found' although every rung sustained")
		}
		if sat.RateSessionsPerSec != 400 {
			t.Fatalf("top sustained rung %v, want 400", sat.RateSessionsPerSec)
		}
		return rungs
	}
	a := run()
	b := run()
	for i := range a {
		if a[i].Utts != b[i].Utts || a[i].Completed != b[i].Completed ||
			a[i].Failed != b[i].Failed || a[i].Frames != b[i].Frames ||
			a[i].WERPercent != b[i].WERPercent || a[i].Sustained != b[i].Sustained {
			t.Errorf("rung %d deterministic fields differ across runs:\n%+v\n%+v",
				i, a[i], b[i])
		}
		if a[i].Failed != 0 {
			t.Errorf("rung %d failed %d sessions: %s", i, a[i].Failed, a[i].FirstErr)
		}
	}
}

// TestReportRoundTrip exercises Finalize and both writers on a real
// (tiny) sweep so the BENCH_serve.json shape stays wired up.
func TestReportRoundTrip(t *testing.T) {
	c, h := serveFixture(t, 6)
	addr, stop, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := stop(); err != nil {
			t.Errorf("stop: %v", err)
		}
	}()
	rungs, sat := Sweep(c, SweepConfig{
		Rates: []float64{200}, SLO: time.Minute, ScheduleSeed: 1,
		Opts: ReplayOptions{Addr: addr},
	})
	rep := &Report{
		Scale: "tiny", GOMAXPROCS: 1, Corpus: c.Info(),
		ScheduleSeed: 1, SLOMS: 60000, PerRate: 6,
		Ladder: rungs, Saturation: sat,
	}
	var jsonBuf, textBuf strings.Builder
	if err := rep.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	rep.WriteText(&textBuf)
	if rep.SustainedFramesPerSec != sat.FramesPerSec {
		t.Fatalf("Finalize did not flatten sustained throughput: %v vs %v",
			rep.SustainedFramesPerSec, sat.FramesPerSec)
	}
	for _, want := range []string{`"sustained_frames_per_sec"`, `"ladder"`, `"hash"`} {
		if !strings.Contains(jsonBuf.String(), want) {
			t.Errorf("JSON report missing %s", want)
		}
	}
	if !strings.Contains(textBuf.String(), "corpus:") || !strings.Contains(textBuf.String(), "ladder") {
		t.Errorf("text report missing sections:\n%s", textBuf.String())
	}
}
