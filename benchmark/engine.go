package main

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/asr"
	"repro/internal/decoder"
	"repro/internal/dnn"
	"repro/internal/speech"
	"repro/internal/wfst"
)

// engine is the in-process counterpart of one asrserve: the workload's
// model compiled under its backend, and the decoder over the scale's
// graph. It produces the reference transcripts the served replies are
// checked against, is the whole program under test for offline-sim,
// and is what the traced run replays stage by stage.
type engine struct {
	scale asr.Scale
	plan  *dnn.Plan
	graph *wfst.FST
	dec   *decoder.Decoder
}

// newEngine performs, in order, exactly the set-up an asrserve does
// before it can decode: load, compile, graph, decoder. tr (nil when
// untraced) gets one span per step.
func newEngine(scale asr.Scale, modelPath, backendName string, tr *tracer) (*engine, error) {
	backend, err := dnn.ParseBackend(backendName)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("dnn.load", "", -1)
	net, err := dnn.LoadFile(modelPath)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("dnn.compile", "", -1)
	plan := dnn.Compile(net, dnn.PlanConfig{Backend: backend})
	tr.end(sp)

	world, err := speech.NewWorld(scale.World)
	if err != nil {
		return nil, err
	}
	if plan.OutDim() != world.NumSenones() {
		return nil, fmt.Errorf("model %s has %d outputs, the %s world has %d senones", modelPath, plan.OutDim(), scale.Name, world.NumSenones())
	}
	sp = tr.begin("wfst.compile", "", -1)
	graph := wfst.Compile(world)
	tr.end(sp)
	return &engine{scale: scale, plan: plan, graph: graph, dec: decoder.New(graph)}, nil
}

// decodeConfig is asrserve's decode configuration at CLI defaults for
// the given -store value.
func (e *engine) decodeConfig(store string) (decoder.Config, error) {
	factory, err := asr.StoreFactoryFor(e.scale, store, 0)
	if err != nil {
		return decoder.Config{}, err
	}
	return decoder.Config{Beam: asr.DefaultBeam, AcousticScale: 1, NewStore: factory}, nil
}

// reference is the expected outcome of decoding one utterance.
type reference struct {
	Words []int
	Cost  float64
	OK    bool
	Stats decoder.Stats
}

// matches reports whether a decode outcome is bit-identical to the
// reference: same words, same final-state flag, same cost bits.
func (r reference) matches(words []int, cost float64, ok bool) bool {
	return ok == r.OK && math.Float64bits(cost) == math.Float64bits(r.Cost) && slices.Equal(words, r.Words)
}

// references decodes the corpus the way a server session does — score
// a frame, push it, for every frame, then finish — under the given
// store.
func (e *engine) references(c *corpus, store string) ([]reference, error) {
	cfg, err := e.decodeConfig(store)
	if err != nil {
		return nil, err
	}
	ex := e.plan.NewExec()
	scores := make([]float64, e.plan.OutDim())
	refs := make([]reference, len(c.Utts))
	var ses *decoder.Session
	for i := range c.Utts {
		if ses == nil {
			ses = e.dec.Start(cfg)
		} else if err := ses.Restart(cfg); err != nil {
			return nil, err
		}
		for _, f := range c.Utts[i].Frames {
			ex.LogPosteriors(scores, f)
			if err := ses.PushFrame(scores); err != nil {
				return nil, fmt.Errorf("reference decode of utterance %d: %w", i, err)
			}
		}
		r := ses.Finish()
		refs[i] = reference{Words: r.Words, Cost: r.Cost, OK: r.OK, Stats: r.Stats}
	}
	return refs, nil
}

// median is the middle value (mean of the middle two for an even
// count); it returns 0 for no samples.
func median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
