// End-to-end pin of the serving acceptance criterion: one utterance
// must decode to the same hypothesis and likelihood — bit for bit —
// whether it runs through (a) the batch path (Decoder.Decode over
// precomputed scores, what cmd/asrdecode does), (b) a serial
// incremental Session, or (c) an asrserve-style serve.Server with
// other sessions in flight.
// Importing repro/internal/serve here also puts the serve metrics
// into this binary's Default registry, which keeps
// TestObservabilityCatalogMatchesRegistry honest about them.
package repro_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/asr"
	"repro/internal/decoder"
	"repro/internal/dnn"
	"repro/internal/mat"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/speech"
	"repro/internal/wfst"
)

func TestServedDecodeBitIdenticalAcrossPaths(t *testing.T) {
	scale := asr.ScaleTiny()
	world, err := speech.NewWorld(scale.World)
	if err != nil {
		t.Fatal(err)
	}
	topo := scale.Topology()
	net := topo.Build(mat.NewRNG(7)) // untrained: decoding is deterministic regardless
	dec := decoder.New(wfst.Compile(world))
	dcfg := decoder.Config{Beam: 15, AcousticScale: 1}

	noise := scale.TestNoiseScale
	utts := world.SynthesizeSetNoisy(6, scale.WordsPerUtt, 2002, noise)

	type ref struct {
		frames [][]float64 // spliced features (the client-side payload)
		batch  decoder.Result
	}
	refs := make([]ref, len(utts))
	scorer := dnn.Compile(net, dnn.PlanConfig{Backend: dnn.BackendDense}).NewExec()
	for i, u := range utts {
		spliced := speech.SpliceAll(u.Frames, scale.Context)
		scores := make([][]float64, len(spliced))
		for ti, in := range spliced {
			scores[ti] = make([]float64, world.NumSenones())
			scorer.LogPosteriors(scores[ti], in)
		}
		// Path (a): the batch CLI pipeline.
		refs[i] = ref{frames: spliced, batch: dec.Decode(scores, dcfg)}

		// Path (b): a serial incremental session over the same scores.
		s := dec.Start(dcfg)
		for _, f := range scores {
			if err := s.PushFrame(f); err != nil {
				t.Fatal(err)
			}
			if s.Active() == 0 {
				break
			}
		}
		serial := s.Finish()
		if serial.OK != refs[i].batch.OK ||
			math.Float64bits(serial.Cost) != math.Float64bits(refs[i].batch.Cost) ||
			fmt.Sprint(serial.Words) != fmt.Sprint(refs[i].batch.Words) {
			t.Fatalf("utt %d: serial session diverged from batch decode", i)
		}
	}

	// Path (c): the streaming service. All utterances run concurrently,
	// each on its own session goroutine and Exec.
	reg := registry.New()
	if _, err := reg.Register("default", "", net, dnn.BackendAuto); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{
		Registry: reg,
		Decoder:  dec,
		Decode:   dcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()

	var wg sync.WaitGroup
	errs := make(chan error, len(utts))
	for i := range utts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cs, err := serve.Dial(addr.String(), serve.SessionOptions{ID: fmt.Sprintf("utt-%d", i)})
			if err != nil {
				errs <- fmt.Errorf("utt %d: dial: %v", i, err)
				return
			}
			defer cs.Close()
			for _, f := range refs[i].frames {
				if err := cs.PushFrame(f); err != nil {
					errs <- fmt.Errorf("utt %d: push: %v", i, err)
					return
				}
			}
			rep, _, err := cs.Finish()
			if err != nil {
				errs <- fmt.Errorf("utt %d: finish: %v", i, err)
				return
			}
			want := refs[i].batch
			if rep.OK != want.OK || math.Float64bits(rep.Cost) != math.Float64bits(want.Cost) {
				errs <- fmt.Errorf("utt %d: served (%v, %x) != batch (%v, %x)",
					i, rep.OK, math.Float64bits(rep.Cost), want.OK, math.Float64bits(want.Cost))
				return
			}
			if fmt.Sprint(rep.Words) != fmt.Sprint(want.Words) {
				errs <- fmt.Errorf("utt %d: served words %v != batch %v", i, rep.Words, want.Words)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("Serve returned %v after drain, want nil", err)
	}
}
