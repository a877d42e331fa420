// Command asrbench is the corpus-scale throughput harness for the
// serving stack: it generates a large deterministic multi-speaker
// corpus drawn from mixed scenario profiles (baseline, noisy,
// wide-vocab, long-utt), replays it open-loop against asrserve on a
// seeded Poisson arrival schedule at each rung of a rate ladder,
// locates the saturation knee — the highest arrival rate whose p99
// session latency still meets -slo with no failed sessions.
// internal/bench implements the harness;
// docs/BENCHMARKING.md is the normative description and the
// BENCH_serve.json field reference.
//
// Usage:
//
//	asrbench -model models/small-prune90.model [-scale small]
//	         [-utts 512] [-mix baseline=4,noisy=2,wide-vocab=1,long-utt=1]
//	         [-seed 1] [-sched-seed 1] [-rates 20,40,80,160]
//	         [-per-rate 0] [-slo 500ms] [-beam 15]
//	         [-max-sessions 64] [-json BENCH_serve.json] [-v]
//	asrbench -addr localhost:8093 [-variant name] ...
//
// With -model the server under test runs in-process, listening on a
// loopback port. With -addr the ladder replays against an
// already-running asrserve or asrrouter endpoint instead.
//
// The corpus content, profile mix, and arrival schedules are
// bit-reproducible from -seed/-sched-seed; wall-clock latencies are
// not. The text report goes to stdout; -json additionally writes the
// BENCH_serve.json document, whose flattened gate field
// (sustained_frames_per_sec) ci.sh enforces as the fleet-level
// acceptance floor.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/asr"
	"repro/internal/bench"
	"repro/internal/decoder"
	"repro/internal/dnn"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/speech"
	"repro/internal/wfst"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("asrbench: ")
	scaleName := flag.String("scale", "small", "tiny, small or paper (must match the model)")
	modelPath := flag.String("model", "", "model file written by asrtrain (in-process mode)")
	addr := flag.String("addr", "", "replay against this running asrserve/asrrouter instead of in-process")
	variant := flag.String("variant", "", "server model variant to decode under (empty = server default)")
	utts := flag.Int("utts", 512, "corpus size in utterances")
	mix := flag.String("mix", "", "profile weight overrides, e.g. baseline=4,noisy=2,wide-vocab=0")
	seed := flag.Int64("seed", 1, "corpus generation seed")
	schedSeed := flag.Int64("sched-seed", 1, "arrival-schedule seed")
	ratesFlag := flag.String("rates", "20,40,80,160", "arrival-rate ladder in sessions/sec")
	perRate := flag.Int("per-rate", 0, "utterances per ladder rung (0 = whole corpus)")
	slo := flag.Duration("slo", 500*time.Millisecond, "p99 session-latency objective a rung must meet to count as sustained")
	beam := flag.Float64("beam", asr.DefaultBeam, "decode beam width in -log space")
	maxSessions := flag.Int("max-sessions", 64, "in-process server's concurrent session cap")
	jsonPath := flag.String("json", "", "also write the BENCH_serve.json report here")
	verbose := flag.Bool("v", false, "stream per-rung progress to stderr")
	flag.Parse()

	if (*modelPath == "") == (*addr == "") {
		log.Fatal("exactly one of -model (in-process) or -addr (external) is required")
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
	rates, err := parseRates(*ratesFlag)
	if err != nil {
		log.Fatal(err)
	}

	// Corpus: bit-reproducible from the spec; the hash in the report is
	// its provenance.
	spec := bench.SpecFor(scale, *utts, *seed)
	if *mix != "" {
		weights, err := parseMix(*mix)
		if err != nil {
			log.Fatal(err)
		}
		if err := spec.ApplyMix(weights); err != nil {
			log.Fatal(err)
		}
	}
	corpus, err := bench.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("corpus: %d utts, %d frames (hash %016x)", len(corpus.Utts), corpus.TotalFrames(), corpus.Hash())

	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}
	opts := bench.ReplayOptions{Addr: *addr, Model: *variant}
	report := &bench.Report{
		Scale:        scale.Name,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Corpus:       corpus.Info(),
		ScheduleSeed: *schedSeed,
		SLOMS:        float64(*slo) / float64(time.Millisecond),
		PerRate:      *perRate,
	}

	var harness *bench.Harness
	if *modelPath != "" {
		harness, err = buildHarness(scale, *modelPath, *beam, *maxSessions)
		if err != nil {
			log.Fatal(err)
		}
	}

	// Rate ladder: one server for every rung, so the ladder measures a
	// single configuration's whole latency-vs-load curve.
	sweep := func() ([]*bench.RunStats, bench.Saturation, error) {
		o := opts
		if harness != nil {
			laddr, stop, err := harness.Start()
			if err != nil {
				return nil, bench.Saturation{}, err
			}
			defer func() {
				if err := stop(); err != nil {
					log.Printf("ladder server: %v", err)
				}
			}()
			o.Addr = laddr
		}
		if err := bench.Await(o.Addr, 10*time.Second); err != nil {
			return nil, bench.Saturation{}, err
		}
		rungs, sat := bench.Sweep(corpus, bench.SweepConfig{
			Rates: rates, SLO: *slo, PerRate: *perRate,
			ScheduleSeed: *schedSeed, Opts: o, Progress: progress,
		})
		return rungs, sat, nil
	}
	report.Ladder, report.Saturation, err = sweep()
	if err != nil {
		log.Fatal(err)
	}

	report.WriteText(os.Stdout)
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := report.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *jsonPath)
	}
}

// buildHarness assembles the in-process server-under-test template:
// the model registered as the sole variant, the scale's regenerated
// decode graph, and the admission limits.
func buildHarness(scale asr.Scale, modelPath string, beam float64, maxSessions int) (*bench.Harness, error) {
	net, err := dnn.LoadFile(modelPath)
	if err != nil {
		return nil, err
	}
	reg := registry.New()
	if _, err := reg.Register("default", modelPath, net, dnn.BackendAuto); err != nil {
		return nil, err
	}
	world, err := speech.NewWorld(scale.World)
	if err != nil {
		return nil, err
	}
	if reg.OutDim() != world.NumSenones() {
		return nil, fmt.Errorf("model has %d outputs but the %q world has %d senones — wrong -scale?",
			reg.OutDim(), scale.Name, world.NumSenones())
	}
	return &bench.Harness{
		Template: serve.Config{
			Registry:    reg,
			Decoder:     decoder.New(wfst.Compile(world)),
			Decode:      decoder.Config{Beam: beam, AcousticScale: 1},
			MaxSessions: maxSessions,
			IdleTimeout: 30 * time.Second,
		},
	}, nil
}

// parseRates parses the comma-separated rate ladder.
func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.ParseFloat(part, 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("bad rate %q in -rates (want positive sessions/sec)", part)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("-rates is empty")
	}
	return rates, nil
}

// parseMix parses "name=weight,..." profile overrides.
func parseMix(s string) (map[string]float64, error) {
	weights := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad -mix entry %q (want name=weight)", part)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -mix weight in %q: %v", part, err)
		}
		weights[strings.TrimSpace(name)] = w
	}
	if len(weights) == 0 {
		return nil, fmt.Errorf("-mix is empty")
	}
	return weights, nil
}
