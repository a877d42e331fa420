// Command asrserve runs the streaming ASR decode service: it loads
// one model (-model) or a multi-model manifest (-manifest) of named
// (model, backend) variants, regenerates the matching world's decode
// graph, and serves streaming decode sessions over TCP — each session
// scored and decoded on its own goroutine — with bounded admission,
// bounded request lines, per-request deadlines, zero-downtime weight hot-swap on SIGHUP, and graceful
// drain on SIGTERM/SIGINT (in-flight sessions finish, then the
// process exits 0).
//
// Usage:
//
//	asrserve -model models/small-prune90.model [-scale small]
//	asrserve -manifest models/manifest.json    [-scale small]
//	         [-addr localhost:8093] [-store unbounded|nbest|accurate]
//	         [-beam 15] [-n 0] [-backend auto|dense|sparse|bsr]
//	         [-max-sessions 64] [-idle-timeout 30s]
//	         [-deadline 2m] [-drain-timeout 30s]
//	         [-metrics-addr localhost:9090] [-v]
//
// With -model the single variant is registered under the name
// "default"; -backend selects its scoring kernels (auto picks CSR
// sparse for pruned layers). With -manifest each variant carries its
// own name, model file, and backend (docs/SERVING.md has the format);
// clients select one with the handshake's model field. Transcripts are
// bit-identical across the backends; only forward-pass latency
// changes.
//
// A session's handshake may carry a "control" object to decode that
// session under the adaptive beam controller (internal/control): the
// server validates it before admission — an invalid configuration is
// a permanent structured reject — and the session's beam width and
// max-active cap then adapt frame by frame under the requested
// occupancy SLO. Adaptive decodes are exactly as deterministic as
// static ones; docs/ADAPTIVE.md specifies the control law and
// docs/SERVING.md the wire field.
//
// SIGHUP re-reads every path-backed variant's model file and swaps
// the fresh weights in atomically: sessions in flight finish on the
// plan they started with, new sessions decode with the new weights.
// A failed reload logs and keeps the old weights — the service never
// stops serving.
//
// The wire protocol, manifest format, and backpressure contract are
// documented in docs/SERVING.md;
// cmd/asrrouter shards sessions across several asrserve processes and
// clients open sessions with serve.Dial. Transcripts are bit-identical
// to asrdecode on the same model — concurrency never changes decode
// output. -addr with port 0 picks a free port; the resolved
// address is printed as "listening on HOST:PORT" (the line
// TestFleetProcesses and the benchmark parse).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/asr"
	"repro/internal/decoder"
	"repro/internal/dnn"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/speech"
	"repro/internal/wfst"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("asrserve: ")
	scaleName := flag.String("scale", "small", "tiny, small or paper (must match asrtrain)")
	modelPath := flag.String("model", "", "model file written by asrtrain (single-variant mode)")
	manifestPath := flag.String("manifest", "", "multi-model manifest JSON (see docs/SERVING.md)")
	addr := flag.String("addr", "localhost:8093", "listen address (port 0 = pick a free port)")
	storeKind := flag.String("store", "unbounded", "hypothesis store: unbounded, nbest or accurate")
	beam := flag.Float64("beam", asr.DefaultBeam, "beam width in -log space")
	n := flag.Int("n", 0, "N-best bound for -store nbest/accurate (0 = scale default)")
	backendFlag := flag.String("backend", "auto", "acoustic-scoring kernels for -model: auto, dense, sparse or bsr")
	maxSessions := flag.Int("max-sessions", 64, "concurrent session cap; excess starts are rejected")
	idleTimeout := flag.Duration("idle-timeout", 30*time.Second, "abort a session after this long without a client message")
	deadline := flag.Duration("deadline", 2*time.Minute, "default per-session deadline (clients may set their own)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight sessions on shutdown")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address (enables observation)")
	verbose := flag.Bool("v", false, "enable observation and print the metrics summary on exit")
	flag.Parse()

	if *verbose {
		obs.Enable()
	}
	obs.ServeBackground(*metricsAddr)

	if (*modelPath == "") == (*manifestPath == "") {
		log.Fatal("exactly one of -model or -manifest is required (run asrtrain first)")
	}
	var scale asr.Scale
	switch *scaleName {
	case "tiny":
		scale = asr.ScaleTiny()
	case "small":
		scale = asr.ScaleSmall()
	case "paper":
		scale = asr.ScalePaper()
	default:
		log.Fatalf("unknown scale %q", *scaleName)
	}

	reg, err := buildRegistry(*modelPath, *manifestPath, *backendFlag)
	if err != nil {
		log.Fatal(err)
	}
	world, err := speech.NewWorld(scale.World)
	if err != nil {
		log.Fatal(err)
	}
	if reg.OutDim() != world.NumSenones() {
		log.Fatalf("models have %d outputs but the %q world has %d senones — wrong -scale?",
			reg.OutDim(), scale.Name, world.NumSenones())
	}
	factory, err := asr.StoreFactoryFor(scale, *storeKind, *n)
	if err != nil {
		log.Fatal(err)
	}

	srv, err := serve.New(serve.Config{
		Registry:        reg,
		Decoder:         decoder.New(wfst.Compile(world)),
		Decode:          decoder.Config{Beam: *beam, AcousticScale: 1, NewStore: factory},
		MaxSessions:     *maxSessions,
		IdleTimeout:     *idleTimeout,
		DefaultDeadline: *deadline,
	})
	if err != nil {
		log.Fatal(err)
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("listening on %s\n", bound)
	log.Printf("%d variant(s), default %q, store %s, beam %.1f, %d session slots",
		reg.Len(), reg.Default(), *storeKind, *beam, *maxSessions)
	for _, name := range reg.Names() {
		v, _ := reg.Resolve(name)
		log.Printf("variant %q (backend %s): %s", name, v.Backend(), v.Plan().Describe())
	}

	// SIGTERM/SIGINT → graceful drain: stop accepting, let in-flight
	// sessions finish (bounded by -drain-timeout), exit 0.
	// SIGHUP → hot-swap: reload every path-backed variant's weights;
	// in-flight sessions finish on their pinned plan.
	drained := make(chan error, 1)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT, syscall.SIGHUP)
	go func() {
		for sig := range sigs {
			if sig == syscall.SIGHUP {
				if err := reg.ReloadAll(); err != nil {
					log.Printf("SIGHUP reload failed (serving old weights): %v", err)
				} else {
					log.Printf("SIGHUP: reloaded %d variant(s); in-flight sessions finish on their pinned plans", reg.Len())
				}
				continue
			}
			log.Printf("%v: draining (%d sessions served so far)...", sig, srv.Served())
			ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			defer cancel()
			drained <- srv.Shutdown(ctx)
			return
		}
	}()

	if err := srv.Serve(); err != nil {
		log.Fatal(err)
	}
	if err := <-drained; err != nil {
		log.Fatalf("drain: %v", err)
	}
	log.Printf("drained cleanly; %d sessions served", srv.Served())
	if *verbose {
		if err := obs.Default.WriteText(os.Stderr); err != nil {
			log.Printf("metrics summary: %v", err)
		}
	}
}

// buildRegistry assembles the model registry from either a single
// -model file (one variant named "default") or a -manifest.
func buildRegistry(modelPath, manifestPath, backendFlag string) (*registry.Registry, error) {
	if manifestPath != "" {
		m, err := registry.LoadManifest(manifestPath)
		if err != nil {
			return nil, err
		}
		return m.Build()
	}
	backend, err := dnn.ParseBackend(backendFlag)
	if err != nil {
		return nil, err
	}
	net, err := dnn.LoadFile(modelPath)
	if err != nil {
		return nil, err
	}
	reg := registry.New()
	if _, err := reg.Register("default", modelPath, net, backend); err != nil {
		return nil, err
	}
	return reg, nil
}
