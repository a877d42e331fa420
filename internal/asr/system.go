// Package asr assembles the full reproduced system: the synthetic
// acoustic world, the trained baseline DNN, its pruned derivatives,
// the decoding graph, the Viterbi decoder, and the two accelerator
// simulators — and exposes the paper's experiment configurations
// (Baseline / Beam / NBest at 0/70/80/90% pruning) as presets.
package asr

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/decoder"
	"repro/internal/dnn"
	"repro/internal/mat"
	"repro/internal/pruning"
	"repro/internal/speech"
	"repro/internal/wfst"
)

// PruningLevels are the sweep points of the paper.
var PruningLevels = []int{0, 70, 80, 90}

// System holds everything needed to run the paper's experiments.
//
// After Build, everything reachable from the exported fields is
// treated as shared read-only by the engine layer (engine.go): the
// graph, the decoder, the models, and the test set may be used by any
// number of concurrent decode sessions. The lazily-computed score and
// quality caches are the only mutable state and are guarded by mu, so
// Scores and Quality are safe to call from concurrent Run invocations.
type System struct {
	Scale    Scale
	World    *speech.World
	Graph    *wfst.FST
	Decoder  *decoder.Decoder
	Topology dnn.Topology

	// Engine sets the default concurrency of Run and RunMatrix; the
	// zero value means one worker per core at both levels.
	Engine EngineConfig

	// Models maps pruning percentage (0, 70, 80, 90) to a network.
	Models       map[int]*dnn.Network
	PruneReports map[int]pruning.Report
	TrainSamples []dnn.Sample
	TestSet      []*speech.Utterance
	TestSamples  []dnn.Sample

	mu      sync.Mutex            // guards scores and quality
	scores  map[int][][][]float64 // pruning -> utterance -> frame -> senone log-post
	quality map[int][3]float64    // pruning -> (top1, top5, confidence)

	// blockMu guards the lazily derived block-pruned models and their
	// score cache (block.go). Separate from mu so a long block retrain
	// never stalls unstructured Scores callers.
	blockMu      sync.Mutex
	blockModels  map[blockKey]*dnn.Network
	blockReports map[blockKey]pruning.Report
	blockScores  map[blockKey][][][]float64
}

// Build synthesizes the world and corpus, trains the baseline network
// and derives the pruned models at the given levels (nil = the paper's
// 0/70/80/90 sweep).
func Build(scale Scale, levels []int) (*System, error) {
	if levels == nil {
		levels = PruningLevels
	}
	world, err := speech.NewWorld(scale.World)
	if err != nil {
		return nil, err
	}
	sys := &System{
		Scale:        scale,
		World:        world,
		Topology:     scale.Topology(),
		Models:       map[int]*dnn.Network{},
		PruneReports: map[int]pruning.Report{},
		scores:       map[int][][][]float64{},
		quality:      map[int][3]float64{},
	}

	trainSet := world.SynthesizeSet(scale.TrainUtts, scale.WordsPerUtt, 1001)
	noise := scale.TestNoiseScale
	if noise <= 0 {
		noise = 1
	}
	sys.TestSet = world.SynthesizeSetNoisy(scale.TestUtts, scale.WordsPerUtt, 2002, noise)
	sys.TrainSamples = speech.TrainingSamples(trainSet, scale.Context)
	sys.TestSamples = speech.TrainingSamples(sys.TestSet, scale.Context)

	baseline := sys.Topology.Build(mat.NewRNG(7))
	dnn.NewTrainer(baseline).Train(sys.TrainSamples, scale.BaselineTrain)
	sys.Models[0] = baseline

	for _, lv := range levels {
		if lv == 0 {
			continue
		}
		res, err := pruning.PruneAndRetrain(baseline, sys.TrainSamples, pruning.Config{
			Target:  float64(lv) / 100,
			Retrain: scale.Retrain,
		})
		if err != nil {
			return nil, fmt.Errorf("asr: pruning to %d%%: %w", lv, err)
		}
		sys.Models[lv] = res.Net
		sys.PruneReports[lv] = res.Report
	}

	sys.Graph = wfst.Compile(world)
	sys.Decoder = decoder.New(sys.Graph)
	return sys, nil
}

// Levels returns the available pruning levels in ascending order.
func (s *System) Levels() []int {
	var out []int
	for lv := range s.Models {
		out = append(out, lv)
	}
	sort.Ints(out)
	return out
}

// Scores returns (computing and caching on first use) the per-frame
// acoustic log-posteriors of every test utterance under the model at
// the given pruning level. Safe for concurrent callers; the first one
// computes while the rest wait, and the returned slices are read-only.
func (s *System) Scores(level int) [][][]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sc, ok := s.scores[level]; ok {
		return sc
	}
	net, ok := s.Models[level]
	if !ok {
		panic(fmt.Sprintf("asr: no model at pruning level %d", level))
	}
	all := s.scoreTestSet(net)
	s.scores[level] = all
	return all
}

// scoreTestSet compiles net's auto plan and runs the per-frame forward
// pass of every test utterance through it. Forward passes dominate
// experiment setup time; utterances are independent, so they are
// scored on all cores. All workers share the one plan (read-only) and
// own only an Exec of per-worker scratch — no per-worker Network
// clones.
func (s *System) scoreTestSet(net *dnn.Network) [][][]float64 {
	plan := dnn.Compile(net, dnn.PlanConfig{})
	all := make([][][]float64, len(s.TestSet))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(s.TestSet) {
		workers = len(s.TestSet)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex := plan.NewExec()
			for i := range work {
				u := s.TestSet[i]
				spliced := speech.SpliceAll(u.Frames, s.Scale.Context)
				scores := make([][]float64, len(spliced))
				for t, in := range spliced {
					vec := make([]float64, s.World.NumSenones())
					ex.LogPosteriors(vec, in)
					scores[t] = vec
				}
				all[i] = scores
			}
		}()
	}
	for i := range s.TestSet {
		work <- i
	}
	close(work)
	wg.Wait()
	return all
}

// Quality evaluates (once, caching) frame-level model quality on the
// test samples. Safe for concurrent callers; the first one computes
// while the rest wait.
func (s *System) Quality(level int) (top1, top5, confidence float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q, ok := s.quality[level]; ok {
		return q[0], q[1], q[2]
	}
	if s.quality == nil {
		s.quality = map[int][3]float64{}
	}
	top1, top5, confidence = dnn.Evaluate(s.Models[level], s.TestSamples)
	s.quality[level] = [3]float64{top1, top5, confidence}
	return top1, top5, confidence
}

// Derive returns a System that decodes a different world with this
// one's trained models: the graph is recompiled for the given world,
// the test set replaces the parent's, and the score/quality caches
// start empty. Training is the expensive step, so this is what lets a
// scenario sweep vary the evaluation world — noise, utterance length,
// even vocabulary size — without rebuilding. Vocabulary variants are
// sound because speech.NewWorld draws the senone emission means
// before consuming any vocabulary-dependent randomness (pinned by
// TestVocabChangePreservesMeans in internal/speech), so a world that
// differs only in Vocab has identical senones and the parent's models
// score its frames correctly. The derived system shares the parent's
// model networks read-only: every scorer compiles its own plan, so
// derived systems may run concurrently.
func (s *System) Derive(world *speech.World, testSet []*speech.Utterance) *System {
	g := wfst.Compile(world)
	return &System{
		Scale:        s.Scale,
		World:        world,
		Graph:        g,
		Decoder:      decoder.New(g),
		Topology:     s.Topology,
		Engine:       s.Engine,
		Models:       s.Models,
		PruneReports: s.PruneReports,
		TrainSamples: s.TrainSamples,
		TestSet:      testSet,
		TestSamples:  speech.TrainingSamples(testSet, s.Scale.Context),
		scores:       map[int][][][]float64{},
		quality:      map[int][3]float64{},
	}
}

// TotalTestFrames reports the number of acoustic frames in the test
// set (the per-frame DNN cost multiplier).
func (s *System) TotalTestFrames() int {
	n := 0
	for _, u := range s.TestSet {
		n += u.NumFrames()
	}
	return n
}
