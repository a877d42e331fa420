// Benchmarks regenerating every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`), plus the
// ablations called out in DESIGN.md and micro-benchmarks of the hot
// data structures.
//
// Figure/table benches run at ScaleTiny so the whole suite finishes in
// minutes; cmd/darkside regenerates the same tables at larger scales.
// Scientific quantities (speedups, confidence drops, similarities) are
// emitted as custom benchmark metrics so `-bench` output doubles as an
// experiment log.
package repro_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/accel/dnnsim"
	"repro/internal/accel/viterbisim"
	"repro/internal/asr"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/dnn"
	"repro/internal/experiments"
	"repro/internal/gmm"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/wer"
	"repro/internal/wfst"
)

func benchSystem(b *testing.B) *asr.System {
	b.Helper()
	sys, err := experiments.SystemFor(asr.ScaleTiny())
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// ---- one benchmark per paper table/figure -------------------------------

func BenchmarkTable1Pruning(b *testing.B) {
	sys := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(sys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1ScoreDistribution(b *testing.B) {
	sys := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(sys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2DecodingTime(b *testing.B) {
	sys := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(sys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3Confidence(b *testing.B) {
	sys := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(sys); err != nil {
			b.Fatal(err)
		}
	}
	_, _, base := sys.Quality(0)
	_, _, p90 := sys.Quality(90)
	b.ReportMetric(100*(base-p90)/base, "conf-drop-90%")
}

func BenchmarkFig4Hypotheses(b *testing.B) {
	sys := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(sys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5BeamIllustration(b *testing.B) {
	sys := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(sys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7WERvsN(b *testing.B) {
	sys := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(sys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8HeapReplacement(b *testing.B) {
	// the single-cycle replacement path itself: a full set absorbing a
	// stream of better-and-worse hypotheses
	tab := core.NewSetAssoc[int](1, 8)
	rng := rand.New(rand.NewSource(1))
	costs := make([]float64, 4096)
	for i := range costs {
		costs[i] = rng.Float64() * 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Insert(uint64(i), costs[i%len(costs)], i)
	}
}

func BenchmarkFig9Similarity(b *testing.B) {
	sys := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(sys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Table3Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUtilizationDrop(b *testing.B) {
	sys := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.UtilizationTable(sys); err != nil {
			b.Fatal(err)
		}
	}
	dense, _ := dnnsim.Analyze(sys.Models[0], sys.Scale.DNNConfig())
	pruned, _ := dnnsim.Analyze(sys.Models[90], sys.Scale.DNNConfig())
	b.ReportMetric(float64(dense.CyclesPerFrame)/float64(pruned.CyclesPerFrame), "dnn-speedup-90")
}

func BenchmarkFig11ExecTime(b *testing.B) {
	sys := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(sys); err != nil {
			b.Fatal(err)
		}
	}
	res, err := sys.RunMatrix([]asr.PipelineConfig{
		sys.Preset(asr.MitigationNone, 0),
		sys.Preset(asr.MitigationNBest, 90),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res[0].TotalSeconds()/res[1].TotalSeconds(), "nbest90-speedup")
}

func BenchmarkFig12Energy(b *testing.B) {
	sys := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(sys); err != nil {
			b.Fatal(err)
		}
	}
	res, err := sys.RunMatrix([]asr.PipelineConfig{
		sys.Preset(asr.MitigationNone, 0),
		sys.Preset(asr.MitigationNBest, 90),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res[0].TotalEnergyJ()/res[1].TotalEnergyJ(), "nbest90-savings")
}

func BenchmarkHeadline(b *testing.B) {
	sys := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Headline(sys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTailLatency(b *testing.B) {
	sys := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TailLatency(sys); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- ablations (DESIGN.md §8) -------------------------------------------

// BenchmarkAblationHeapVsTree compares the paper's single-cycle
// Max-Heap replacement against the rejected 3-cycle comparator tree:
// identical behaviour, different modelled store cycles.
func BenchmarkAblationHeapVsTree(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	stream := make([]core.Hypo, 8192)
	for i := range stream {
		stream[i] = core.Hypo{Key: uint64(i), Cost: rng.Float64() * 100}
	}
	run := func(evictionCycles int64) int64 {
		tab := core.NewSetAssoc[int](64, 8)
		tab.SetEvictionCycles(evictionCycles)
		core.ReplayInto[int](tab, stream, 0)
		return tab.Stats().Cycles
	}
	var heap, tree int64
	for i := 0; i < b.N; i++ {
		heap = run(1)
		tree = run(3)
	}
	b.ReportMetric(float64(tree)/float64(heap), "tree-vs-heap-cycles")
}

// BenchmarkAblationOverflowModel isolates the cost of UNFOLD's DRAM
// overflow path: the same overload stream against on-chip-sufficient
// and overflowing geometries.
func BenchmarkAblationOverflowModel(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	stream := make([]core.Hypo, 4096)
	for i := range stream {
		stream[i] = core.Hypo{Key: uint64(i), Cost: rng.Float64()}
	}
	var fits, spills int64
	for i := 0; i < b.N; i++ {
		big := core.NewUnbounded[int](8192, 4096, 100)
		small := core.NewUnbounded[int](1024, 512, 100)
		core.ReplayInto[int](big, stream, 0)
		core.ReplayInto[int](small, stream, 0)
		fits = big.Stats().Cycles
		spills = small.Stats().Cycles
	}
	b.ReportMetric(float64(spills)/float64(fits), "overflow-penalty")
}

// BenchmarkAblationAssociativity sweeps table associativity at fixed N
// (Figure 9 as an ablation) and reports the 8-way similarity.
func BenchmarkAblationAssociativity(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	const n = 256
	stream := make([]core.Hypo, 4*n)
	for i := range stream {
		stream[i] = core.Hypo{Key: uint64(i), Cost: rng.Float64() * 100}
	}
	oracle := core.NewAccurateNBest[int](n)
	core.ReplayInto[int](oracle, stream, 0)
	var sim8 float64
	for i := 0; i < b.N; i++ {
		for _, ways := range []int{1, 2, 4, 8} {
			loose := core.NewSetAssoc[int](n/ways, ways)
			core.ReplayInto[int](loose, stream, 0)
			if ways == 8 {
				sim8 = core.Similarity[int](loose, oracle, n)
			}
		}
	}
	b.ReportMetric(sim8, "similarity-8way")
}

// BenchmarkAblationBeamVsNBest decodes the 90%-pruned test set under
// the two mitigations and reports the worst-case / median utterance
// time ratio — the paper's tail-latency argument.
func BenchmarkAblationBeamVsNBest(b *testing.B) {
	sys := benchSystem(b)
	var beamTail, nbestTail float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range []asr.Mitigation{asr.MitigationBeam, asr.MitigationNBest} {
			res, err := sys.RunMatrix([]asr.PipelineConfig{sys.Preset(m, 90)})
			if err != nil {
				b.Fatal(err)
			}
			ratio := res[0].TailSeconds(1) / res[0].TailSeconds(0.5)
			if m == asr.MitigationBeam {
				beamTail = ratio
			} else {
				nbestTail = ratio
			}
		}
	}
	b.ReportMetric(beamTail, "beam-max/p50")
	b.ReportMetric(nbestTail, "nbest-max/p50")
}

// ---- engine: parallel decode fan-out -------------------------------------

func benchMatrixConfigs(sys *asr.System) []asr.PipelineConfig {
	return []asr.PipelineConfig{
		sys.Preset(asr.MitigationNone, 0),
		sys.Preset(asr.MitigationNone, 90),
		sys.Preset(asr.MitigationBeam, 70),
		sys.Preset(asr.MitigationNBest, 90),
	}
}

// BenchmarkRunMatrixSerial is the single-goroutine reference sweep:
// the engine at pool width 1 (utterances and configs strictly in
// order). Results are identical to the parallel sweep by construction.
func BenchmarkRunMatrixSerial(b *testing.B) {
	sys := benchSystem(b)
	cfgs := benchMatrixConfigs(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.RunMatrixEngine(cfgs, asr.SerialEngine()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunMatrixParallel runs the same sweep with one worker per
// core and reports the measured wall-clock speedup over the serial
// reference ("parallel-speedup", ~1.0 on a single-core machine, and
// scaling with cores since utterances decode independently).
func BenchmarkRunMatrixParallel(b *testing.B) {
	sys := benchSystem(b)
	cfgs := benchMatrixConfigs(sys)
	// warm the shared score/quality caches so both timings measure
	// decode work, not one-time DNN inference
	if _, err := sys.RunMatrixEngine(cfgs, asr.SerialEngine()); err != nil {
		b.Fatal(err)
	}
	t0 := time.Now()
	if _, err := sys.RunMatrixEngine(cfgs, asr.SerialEngine()); err != nil {
		b.Fatal(err)
	}
	serial := time.Since(t0).Seconds()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.RunMatrixEngine(cfgs, asr.EngineConfig{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	parallel := b.Elapsed().Seconds() / float64(b.N)
	if parallel > 0 {
		b.ReportMetric(serial/parallel, "parallel-speedup")
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
}

// BenchmarkSessionDecode drives one utterance frame-by-frame through
// the session API — the cost of the incremental path relative to
// BenchmarkViterbiDecodeUtterance's batch loop (they share all code).
func BenchmarkSessionDecode(b *testing.B) {
	sys := benchSystem(b)
	scores := sys.Scores(90)[0]
	cfg := decoder.Config{Beam: asr.DefaultBeam, AcousticScale: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sys.Decoder.Start(cfg)
		for _, f := range scores {
			if err := s.PushFrame(f); err != nil {
				b.Fatal(err)
			}
		}
		s.Finish()
	}
}

// BenchmarkSessionPushFrameObs is the observability overhead guard:
// the same frame-by-frame decode as BenchmarkSessionDecode with
// metrics disabled (the default) and enabled. The budget documented
// in docs/OBSERVABILITY.md is <2% overhead enabled and ~0 disabled —
// disabled instrumentation costs one atomic load per update site.
func BenchmarkSessionPushFrameObs(b *testing.B) {
	sys := benchSystem(b)
	scores := sys.Scores(90)[0]
	cfg := decoder.Config{Beam: asr.DefaultBeam, AcousticScale: 1}
	decode := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sys.Decoder.Start(cfg)
			for _, f := range scores {
				if err := s.PushFrame(f); err != nil {
					b.Fatal(err)
				}
			}
			s.Finish()
		}
	}
	b.Run("off", func(b *testing.B) {
		obs.Disable()
		decode(b)
	})
	b.Run("on", func(b *testing.B) {
		obs.Enable()
		defer obs.Disable()
		decode(b)
	})
}

// ---- pooled decode: per-level cost and the 1.5x floor --------------------

// BenchmarkDecodeUtterance measures one full utterance per op through
// a pooled session (Restart + PushFrame loop + Finish) at each pruning
// level.
func BenchmarkDecodeUtterance(b *testing.B) {
	sys := benchSystem(b)
	for _, lv := range []int{0, 70, 90} {
		scores := sys.Scores(lv)[0]
		cfg := decoder.Config{Beam: asr.DefaultBeam, AcousticScale: 1}
		b.Run(fmt.Sprintf("pooled/p%d", lv), func(b *testing.B) {
			s := sys.Decoder.Start(cfg)
			utterance := func() {
				for _, f := range scores {
					if err := s.PushFrame(f); err != nil {
						b.Fatal(err)
					}
				}
				s.Finish()
			}
			utterance() // warm arenas, maps, and store scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Restart(cfg); err != nil {
					b.Fatal(err)
				}
				utterance()
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N*len(scores)), "ns/frame")
		})
	}
}

// floorPooledVsHeapP90 is the decode floor: the pooling work must stay
// a measured win on the paper's worst-case (90%-pruned) workload.
const floorPooledVsHeapP90 = 1.5

// BenchmarkDecodeFloor gates the pooled decode path against the
// heap-allocation reference (decoder.Config.HeapAlloc) on the first
// 90%-pruned test utterance. One op is the whole gate, so run it with
// -benchtime 1x: three rounds, each timing 30 utterances pooled and
// then 30 on the heap path, and each series' minimum over the rounds.
// That the warmed pooled path allocates nothing is pinned in the test
// suite by decoder.TestPushFrameSteadyStateAllocs.
func BenchmarkDecodeFloor(b *testing.B) {
	const rounds, utterances = 3, 30
	sys := benchSystem(b)
	scores := sys.Scores(90)[0]
	pooledCfg := decoder.Config{Beam: asr.DefaultBeam, AcousticScale: 1}
	heapCfg := pooledCfg
	heapCfg.HeapAlloc = true
	decode := func(s *decoder.Session) {
		for _, f := range scores {
			if err := s.PushFrame(f); err != nil {
				b.Fatal(err)
			}
		}
		s.Finish()
	}
	pooled := sys.Decoder.Start(pooledCfg)
	decode(pooled) // warm arenas, maps, and store scratch
	series := []struct {
		name string
		utt  func()
		best time.Duration
	}{
		{name: "pooled/p90", utt: func() {
			if err := pooled.Restart(pooledCfg); err != nil {
				b.Fatal(err)
			}
			decode(pooled)
		}},
		{name: "heap/p90", utt: func() { decode(sys.Decoder.Start(heapCfg)) }},
	}
	b.ResetTimer()
	for r := 0; r < rounds; r++ {
		for i := range series {
			t0 := time.Now()
			for j := 0; j < utterances; j++ {
				series[i].utt()
			}
			if d := time.Since(t0); r == 0 || d < series[i].best {
				series[i].best = d
			}
		}
	}
	for _, s := range series {
		b.Logf("%-10s %6.0f ns/frame (min of %d)", s.name,
			float64(s.best.Nanoseconds())/float64(utterances*len(scores)), rounds)
	}
	speedup := float64(series[1].best) / float64(series[0].best)
	b.ReportMetric(speedup, "pooled-vs-heap-p90")
	if speedup < floorPooledVsHeapP90 {
		b.Fatalf("pooled decode is %.2fx the heap path at p90, floor %.2fx", speedup, floorPooledVsHeapP90)
	}
}

// BenchmarkSessionPushFrame measures the steady-state per-frame cost
// of a warmed pooled session on the 90%-pruned test set, the way the
// offline-sim workload decodes it: each store is the scale's served
// geometry (asr.StoreFactoryFor), and the probed legs attach a fresh
// viterbisim.Simulator per utterance. One op is one PushFrame; the
// session restarts in place at utterance boundaries. The unprobed
// legs' allocs/op column reads 0: the contract that the Viterbi hot
// path never touches the heap once warm, pinned on both stores by
// decoder.TestPushFrameSteadyStateAllocs.
func BenchmarkSessionPushFrame(b *testing.B) {
	sys := benchSystem(b)
	utts := sys.Scores(90)
	for _, kind := range []string{"unbounded", "nbest"} {
		store, err := asr.StoreFactoryFor(sys.Scale, kind, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, probed := range []bool{false, true} {
			name := kind + "/unprobed"
			if probed {
				name = kind + "/probed"
			}
			b.Run(name, func(b *testing.B) {
				cfg := decoder.Config{Beam: asr.DefaultBeam, AcousticScale: 1, NewStore: store}
				s := sys.Decoder.Start(cfg)
				u := 0
				next := func() { // restart on the next utterance
					u = (u + 1) % len(utts)
					if probed {
						vcfg := sys.Scale.ViterbiConfig()
						vcfg.NBestTable = kind == "nbest"
						cfg.Probe = viterbisim.New(vcfg)
					}
					if err := s.Restart(cfg); err != nil {
						b.Fatal(err)
					}
				}
				for range 2 * len(utts) { // the first pass may still size store scratch
					for _, f := range utts[u] {
						if err := s.PushFrame(f); err != nil {
							b.Fatal(err)
						}
					}
					next()
				}
				b.ReportAllocs()
				b.ResetTimer()
				j := 0
				for i := 0; i < b.N; i++ {
					if err := s.PushFrame(utts[u][j]); err != nil {
						b.Fatal(err)
					}
					if j++; j == len(utts[u]) {
						next()
						j = 0
					}
				}
			})
		}
	}
}

// ---- micro-benchmarks of the hot paths ----------------------------------

func BenchmarkSetAssocInsert(b *testing.B) {
	tab := core.NewSetAssoc[int](128, 8)
	rng := rand.New(rand.NewSource(7))
	keys := make([]uint64, 8192)
	costs := make([]float64, len(keys))
	for i := range keys {
		keys[i] = uint64(rng.Intn(4096))
		costs[i] = rng.Float64() * 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(keys)
		tab.Insert(keys[j], costs[j], i)
	}
}

func BenchmarkUnboundedInsert(b *testing.B) {
	tab := core.NewUnbounded[int](0, 0, 0)
	rng := rand.New(rand.NewSource(8))
	keys := make([]uint64, 8192)
	for i := range keys {
		keys[i] = uint64(rng.Intn(16384))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 {
			tab.Reset()
		}
		tab.Insert(keys[i%len(keys)], float64(i), i)
	}
}

func BenchmarkAccurateNBestInsert(b *testing.B) {
	tab := core.NewAccurateNBest[int](1024)
	rng := rand.New(rand.NewSource(9))
	costs := make([]float64, 8192)
	for i := range costs {
		costs[i] = rng.Float64() * 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Insert(uint64(i%16384), costs[i%len(costs)], i)
	}
}

func BenchmarkDNNForward(b *testing.B) {
	sys := benchSystem(b)
	net := sys.Models[0]
	ex := dnn.Compile(net, dnn.PlanConfig{}).NewExec()
	in := sys.TestSamples[0].Input
	out := make([]float64, net.OutDim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.LogPosteriors(out, in)
	}
}

func BenchmarkViterbiDecodeUtterance(b *testing.B) {
	sys := benchSystem(b)
	scores := sys.Scores(90)[0]
	cfg := decoder.Config{Beam: asr.DefaultBeam, AcousticScale: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Decoder.Decode(scores, cfg)
	}
}

func BenchmarkWERDistance(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	ref := make([]int, 50)
	hyp := make([]int, 48)
	for i := range ref {
		ref[i] = rng.Intn(20)
	}
	for i := range hyp {
		hyp[i] = rng.Intn(20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wer.Distance(ref, hyp)
	}
}

func BenchmarkMatVec(b *testing.B) {
	m := mat.NewMatrix(400, 80)
	rng := mat.NewRNG(11)
	rng.FillNorm(m.Data, 0, 1)
	x := make([]float64, 80)
	rng.FillNorm(x, 0, 1)
	dst := make([]float64, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatVec(dst, x)
	}
}

// ---- extension and substrate benches -------------------------------------

func BenchmarkQuantize5Bit(b *testing.B) {
	sys := benchSystem(b)
	net := sys.Models[90]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := quant.Quantize(net, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGMMScoreFrame(b *testing.B) {
	sys := benchSystem(b)
	var frames [][]float64
	var labels []int
	for _, u := range sys.TestSet {
		frames = append(frames, u.Frames...)
		labels = append(labels, u.Align...)
	}
	model, err := gmm.Train(frames, labels, sys.World.NumSenones(), gmm.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	post := make([]float64, sys.World.NumSenones())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.LogPosteriors(post, frames[i%len(frames)])
	}
}

func BenchmarkLazyCompositionDecode(b *testing.B) {
	sys := benchSystem(b)
	scores := sys.Scores(90)[0]
	cfg := decoder.Config{Beam: asr.DefaultBeam, AcousticScale: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lazy := decoder.New(wfst.NewLazy(sys.World))
		lazy.Decode(scores, cfg)
	}
}

func BenchmarkHuffmanBits(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	counts := make([]int64, 256)
	for i := range counts {
		counts[i] = int64(rng.Intn(10000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quant.HuffmanBits(counts)
	}
}
