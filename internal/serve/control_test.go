package serve

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/control"
	"repro/internal/decoder"
	"repro/internal/speech"
)

// adaptiveControl is a valid controller config for the fixture's tiny
// search space.
func adaptiveControl() *control.Config {
	return &control.Config{
		TargetOccupancy: 24,
		MinBeam:         10,
		MaxBeam:         15,
		BeamStep:        0.5,
		LowConfidence:   0.3,
		MinK:            24,
		MaxK:            96,
	}
}

// TestAdaptiveSessionMatchesLocal pins the serving contract for
// adaptive decodes: a session that requests the controller in its
// handshake returns exactly the transcript a local adaptive decode of
// the same frames produces — pooling and concurrency included — and two served runs of the same utterance are identical.
func TestAdaptiveSessionMatchesLocal(t *testing.T) {
	f := newFixture(t)
	_, addr, stop := f.start(t, nil)
	defer stop()

	cc := adaptiveControl()
	for i, u := range f.utts[:8] {
		spliced, scores := f.scored(u)
		ctl, err := control.New(*cc)
		if err != nil {
			t.Fatal(err)
		}
		want := f.dec.Decode(scores, decoder.Config{Beam: 15, AcousticScale: 1, Policy: ctl})

		opts := SessionOptions{ID: fmt.Sprintf("adaptive-%d", i), Control: cc}
		rep, _, err := decodeRemote(addr, spliced, opts)
		if err != nil {
			t.Fatalf("utt %d: %v", i, err)
		}
		if rep.OK != want.OK || rep.Cost != want.Cost || len(rep.Words) != len(want.Words) {
			t.Fatalf("utt %d: served (%v, %v, %v) != local (%v, %v, %v)",
				i, rep.OK, rep.Cost, rep.Words, want.OK, want.Cost, want.Words)
		}
		for j := range want.Words {
			if rep.Words[j] != want.Words[j] {
				t.Fatalf("utt %d: served words %v != local %v", i, rep.Words, want.Words)
			}
		}

		again, _, err := decodeRemote(addr, spliced, opts)
		if err != nil {
			t.Fatalf("utt %d rerun: %v", i, err)
		}
		if again.Cost != rep.Cost || len(again.Words) != len(rep.Words) {
			t.Fatalf("utt %d: served adaptive decode not repeatable", i)
		}
	}
}

// scored splices one utterance and computes its acoustic scores on a
// dense plan of the fixture network (the same rows the server's
// per-session Exec will produce).
func (f *testFixture) scored(u *speech.Utterance) (spliced, scores [][]float64) {
	spliced = speech.SpliceAll(u.Frames, f.topo.Context)
	return spliced, denseScores(f.net, spliced)
}

// TestMalformedControlRejected pins the admission contract: an invalid
// controller config in the handshake gets a structured permanent
// reject naming the bad field — before an admission slot is spent, so
// a client error can never hang in the admission queue — and the
// connection still serves a corrected handshake immediately after.
func TestMalformedControlRejected(t *testing.T) {
	f := newFixture(t)
	srv, addr, stop := f.start(t, func(c *Config) { c.MaxSessions = 1 })
	defer stop()

	bad := []control.Config{
		{TargetOccupancy: 0, MinBeam: 10, MaxBeam: 15},  // missing SLO
		{TargetOccupancy: 24, MinBeam: 0, MaxBeam: 15},  // missing beam floor
		{TargetOccupancy: 24, MinBeam: 15, MaxBeam: 10}, // inverted bounds
		{TargetOccupancy: 24, MinBeam: 10, MaxBeam: 15, LowConfidence: 1.5},
		{TargetOccupancy: 24, MinBeam: 10, MaxBeam: 15, MinK: 64, MaxK: 8},
	}
	for i, cc := range bad {
		cfg := cc
		_, err := Dial(addr, SessionOptions{ID: fmt.Sprintf("bad-%d", i), Control: &cfg})
		var rej *RejectedError
		if !errors.As(err, &rej) {
			t.Fatalf("config %d: got %v, want *RejectedError", i, err)
		}
		if !rej.Permanent() {
			t.Fatalf("config %d: reject not permanent: %v", i, rej)
		}
		if rej.RetryAfter != 0 || len(rej.Available) != 0 {
			t.Fatalf("config %d: reject carries retry/availability hints: %+v", i, rej)
		}
		if !strings.Contains(rej.Reason, "control:") {
			t.Fatalf("config %d: reason %q does not name the controller", i, rej.Reason)
		}
	}

	// The rejects above spent no admission slots: with MaxSessions=1 a
	// real session still gets the only slot right away.
	spliced, _ := f.scored(f.utts[0])
	rep, _, err := decodeRemote(addr, spliced, SessionOptions{ID: "good", Control: adaptiveControl()})
	if err != nil {
		t.Fatalf("valid session after rejects: %v", err)
	}
	if rep.Event != EventResult {
		t.Fatalf("valid session got %q", rep.Event)
	}
	if srv.Served() != 1 {
		t.Fatalf("served = %d, want 1", srv.Served())
	}
}
