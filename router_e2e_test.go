// End-to-end pin of the routing acceptance criterion: an asrrouter
// topology — two serve.Server backends, each loading the same
// three-variant registry (dense and sparse compilations of the same
// weights, and a block-pruned copy on bsr), fronted by one Router —
// must produce transcripts byte-identical to dialing a backend
// directly, for every session and every variant. Importing repro/internal/router (and registry via
// serve) here also puts their metrics into this binary's Default
// registry, keeping TestObservabilityCatalogMatchesRegistry honest
// about them.
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
	"repro/internal/pruning"
	"repro/internal/registry"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/speech"
	"repro/internal/wfst"
)

func TestRoutedDecodeBitIdenticalToDirect(t *testing.T) {
	scale := asr.ScaleTiny()
	world, err := speech.NewWorld(scale.World)
	if err != nil {
		t.Fatal(err)
	}
	topo := scale.Topology()
	net := topo.Build(mat.NewRNG(7))
	dec := decoder.New(wfst.Compile(world))
	dcfg := decoder.Config{Beam: 15, AcousticScale: 1}
	utts := world.SynthesizeSetNoisy(8, scale.WordsPerUtt, 2002, scale.TestNoiseScale)

	// Each backend gets its own registry instance (separate processes
	// in production) with the same three variants: the same weights
	// compiled dense and sparse, plus a block-pruned copy on the bsr
	// kernel. Dense and sparse agree bit for bit with each other; the
	// bsr variant scores different (block-pruned) weights but must
	// likewise be byte-stable — so for every variant, routed must equal
	// direct bit for bit across backend processes.
	bnet := net.Clone()
	bq, err := pruning.CalibrateBlockQuality(bnet, 8, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	pruning.BlockPrune(bnet, bq, 8)
	newRegistry := func() *registry.Registry {
		r := registry.New()
		if _, err := r.Register("w-dense", "", net.Clone(), dnn.BackendDense); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Register("w-sparse", "", net.Clone(), dnn.BackendSparse); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Register("w-bsr", "", bnet.Clone(), dnn.BackendBSR); err != nil {
			t.Fatal(err)
		}
		return r
	}
	startBackend := func() (*serve.Server, string, func()) {
		srv, err := serve.New(serve.Config{
			Registry: newRegistry(),
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
		serveErr := make(chan error, 1)
		go func() { serveErr <- srv.Serve() }()
		stop := func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("backend shutdown: %v", err)
			}
			if err := <-serveErr; err != nil {
				t.Errorf("backend Serve: %v", err)
			}
		}
		return srv, addr.String(), stop
	}

	b1, addr1, stop1 := startBackend()
	b2, addr2, stop2 := startBackend()
	defer stop1()
	defer stop2()

	rt, err := router.New(router.Config{Backends: []string{addr1, addr2}})
	if err != nil {
		t.Fatal(err)
	}
	raddr, err := rt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	routerErr := make(chan error, 1)
	go func() { routerErr <- rt.Serve() }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			t.Errorf("router shutdown: %v", err)
		}
		if err := <-routerErr; err != nil {
			t.Errorf("router Serve: %v", err)
		}
	}()

	run := func(addr, id, model string, frames [][]float64) (serve.Reply, error) {
		cs, err := serve.Dial(addr, serve.SessionOptions{ID: id, Model: model})
		if err != nil {
			return serve.Reply{}, err
		}
		defer cs.Close()
		for _, fr := range frames {
			if err := cs.PushFrame(fr); err != nil {
				return serve.Reply{}, err
			}
		}
		rep, _, err := cs.Finish()
		return rep, err
	}

	models := []string{"w-dense", "w-sparse", "w-bsr"}
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(utts))
	for i, u := range utts {
		wg.Add(1)
		go func(i int, u *speech.Utterance) {
			defer wg.Done()
			frames := speech.SpliceAll(u.Frames, topo.Context)
			model := models[i%len(models)]
			direct, err := run(addr1, fmt.Sprintf("d%d", i), model, frames)
			if err != nil {
				errs <- fmt.Errorf("direct %d: %v", i, err)
				return
			}
			routed, err := run(raddr.String(), fmt.Sprintf("d%d", i), model, frames)
			if err != nil {
				errs <- fmt.Errorf("routed %d: %v", i, err)
				return
			}
			if routed.OK != direct.OK ||
				math.Float64bits(routed.Cost) != math.Float64bits(direct.Cost) ||
				fmt.Sprint(routed.Words) != fmt.Sprint(direct.Words) {
				errs <- fmt.Errorf("utt %d (%s): routed (%v, %v, %v) != direct (%v, %v, %v)",
					i, model, routed.OK, routed.Cost, routed.Words, direct.OK, direct.Cost, direct.Words)
			}
		}(i, u)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if rt.Routed() != int64(len(utts)) {
		t.Errorf("router spliced %d sessions, want %d", rt.Routed(), len(utts))
	}
	// The rendezvous hash must actually have used both backends (the
	// direct sessions above all hit backend 1, so subtract those).
	served2 := b2.Served()
	if served2 == 0 {
		t.Error("backend 2 served no sessions — router sent everything to one backend")
	}
	if b1.Served()+served2 != int64(2*len(utts)) {
		t.Errorf("backends served %d+%d sessions, want %d total", b1.Served(), served2, 2*len(utts))
	}
}
