// Command asrdecode loads a model written by asrtrain, regenerates
// the matching synthetic world deterministically, decodes the test
// set and prints per-utterance transcripts with the corpus WER.
//
// Usage:
//
//	asrdecode [-scale small] [-model models/small-prune90.model]
//	          [-store unbounded|nbest|accurate] [-beam 15] [-n 0]
//	          [-backend auto|dense|sparse|bsr] [-workers 0]
//	          [-metrics-addr localhost:9090] [-v]
//
// -backend selects the acoustic-scoring kernels of the compiled
// inference plan: auto (default) picks the CSR sparse kernel for FC
// layers whose weight density is below the threshold, dense and
// sparse force one kernel everywhere. Transcripts, WER and
// confidences are bit-identical across backends (ci.sh pins this);
// only the DNN-side latency changes.
//
// -metrics-addr serves the internal/obs registry over HTTP while the
// decode runs (/metrics JSON, /metrics/text, /debug/pprof/); -v also
// enables observation and appends the metrics text summary after the
// WER report. Transcripts and WER are bit-identical with metrics on
// or off; docs/OBSERVABILITY.md catalogues the metric names.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"sync"

	"repro/internal/asr"
	"repro/internal/decoder"
	"repro/internal/dnn"
	"repro/internal/obs"
	"repro/internal/speech"
	"repro/internal/wer"
	"repro/internal/wfst"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("asrdecode: ")
	scaleName := flag.String("scale", "small", "tiny, small or paper (must match asrtrain)")
	modelPath := flag.String("model", "", "model file written by asrtrain (required)")
	storeKind := flag.String("store", "unbounded", "hypothesis store: unbounded, nbest or accurate")
	beam := flag.Float64("beam", asr.DefaultBeam, "beam width in -log space")
	n := flag.Int("n", 0, "N-best bound for -store nbest/accurate (0 = scale default)")
	lazy := flag.Bool("lazy", false, "use on-the-fly WFST composition instead of the precompiled graph")
	backendFlag := flag.String("backend", "auto", "acoustic-scoring kernels: auto, dense, sparse or bsr")
	verbose := flag.Bool("v", false, "print every transcript")
	workersFlag := flag.Int("workers", 0, "concurrent utterance decodes (0 = one per core, 1 = serial)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address (enables observation)")
	flag.Parse()

	if *verbose {
		obs.Enable()
	}
	obs.ServeBackground(*metricsAddr)

	if *modelPath == "" {
		log.Fatal("-model is required (run asrtrain first)")
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

	backend, err := dnn.ParseBackend(*backendFlag)
	if err != nil {
		log.Fatal(err)
	}

	net, err := dnn.LoadFile(*modelPath)
	if err != nil {
		log.Fatal(err)
	}

	world, err := speech.NewWorld(scale.World)
	if err != nil {
		log.Fatal(err)
	}
	if net.OutDim() != world.NumSenones() {
		log.Fatalf("model has %d outputs but the %q world has %d senones — wrong -scale?",
			net.OutDim(), scale.Name, world.NumSenones())
	}
	var graph wfst.Graph = wfst.Compile(world)
	if *lazy {
		graph = wfst.NewLazy(world)
	}
	dec := decoder.New(graph)

	noise := scale.TestNoiseScale
	if noise <= 0 {
		noise = 1
	}
	testSet := world.SynthesizeSetNoisy(scale.TestUtts, scale.WordsPerUtt, 2002, noise)

	factory, err := asr.StoreFactoryFor(scale, *storeKind, *n)
	if err != nil {
		log.Fatal(err)
	}

	// Engine-style fan-out: utterances are independent, so score and
	// decode them across a worker pool. All workers share the model's
	// one compiled inference plan (read-only) and own only an Exec of
	// scoring scratch; the decoder and graph are likewise shared
	// read-only. Outcomes land per index and aggregate in order, so the
	// printed transcripts and WER match a serial run exactly.
	plan := dnn.Compile(net, dnn.PlanConfig{Backend: backend})
	if *verbose {
		log.Printf("backend %s: %s", backend, plan.Describe())
	}
	type outcome struct {
		words []int
		stats decoder.Stats
	}
	outcomes := make([]outcome, len(testSet))
	nworkers := *workersFlag
	if nworkers <= 0 {
		nworkers = runtime.GOMAXPROCS(0)
	}
	if nworkers > len(testSet) {
		nworkers = len(testSet)
	}
	if nworkers < 1 {
		nworkers = 1
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < nworkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex := plan.NewExec()
			for i := range work {
				u := testSet[i]
				spliced := speech.SpliceAll(u.Frames, scale.Context)
				scores := make([][]float64, len(spliced))
				for t, in := range spliced {
					vec := make([]float64, world.NumSenones())
					ex.LogPosteriors(vec, in)
					scores[t] = vec
				}
				r := dec.Decode(scores, decoder.Config{Beam: *beam, AcousticScale: 1, NewStore: factory})
				outcomes[i] = outcome{words: r.Words, stats: r.Stats}
			}
		}()
	}
	for i := range testSet {
		work <- i
	}
	close(work)
	wg.Wait()

	var corpus wer.Corpus
	var hypos int64
	var frames int
	for i, u := range testSet {
		corpus.Add(u.Words, outcomes[i].words)
		hypos += outcomes[i].stats.Hypotheses
		frames += outcomes[i].stats.Frames
		if *verbose {
			fmt.Printf("utt %02d  ref %s\n        hyp %s\n", i, words(u.Words), words(outcomes[i].words))
		}
	}
	fmt.Printf("utterances: %d   frames: %d\n", len(testSet), frames)
	fmt.Printf("store: %s   beam: %.1f   hypotheses/frame: %.1f\n",
		*storeKind, *beam, float64(hypos)/float64(frames))
	fmt.Printf("WER: %.2f%% (%d sub, %d ins, %d del over %d words)\n",
		corpus.Rate(), corpus.Ops.Substitutions, corpus.Ops.Insertions,
		corpus.Ops.Deletions, corpus.RefWords)
	if *verbose {
		if err := obs.Default.WriteText(os.Stderr); err != nil {
			log.Printf("metrics summary: %v", err)
		}
	}
}

func words(ws []int) string {
	parts := make([]string, len(ws))
	for i, w := range ws {
		parts[i] = fmt.Sprintf("w%02d", w)
	}
	return strings.Join(parts, " ")
}
