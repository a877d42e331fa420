// Command confidence reproduces the paper's Section II analysis —
// Figures 1 and 3 — on a freshly trained system: top-1/top-5 accuracy survive
// magnitude pruning while the softmax confidence collapses, and the
// score distribution of a single frame visibly flattens.
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"repro/internal/asr"
	"repro/internal/dnn"
	"repro/internal/mat"
)

func main() {
	log.SetFlags(0)
	sys, err := asr.Build(asr.ScaleSmall(), nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Figure 3 — average confidence vs pruning:")
	_, _, base := sys.Quality(0)
	for _, lv := range sys.Levels() {
		top1, top5, conf := sys.Quality(lv)
		fmt.Printf("  %3d%%: top-1 %.3f  top-5 %.3f  confidence %.3f (%.1f%% drop)\n",
			lv, top1, top5, conf, 100*(base-conf)/base)
	}

	// Figure 1: pick the frame the baseline is most confident about
	// (the paper admits its example is well selected) and print the
	// sorted score distribution per model as a text sparkline.
	baseline := dnn.Compile(sys.Models[0], dnn.PlanConfig{}).NewExec()
	post := make([]float64, sys.World.NumSenones())
	bestConf, bestIdx := -1.0, 0
	for i, s := range sys.TestSamples {
		if conf := baseline.Posteriors(post, s.Input); conf > bestConf {
			bestConf, bestIdx = conf, i
		}
	}
	frame := sys.TestSamples[bestIdx]

	fmt.Println("\nFigure 1 — score distribution for one frame (top 12 classes):")
	for _, lv := range sys.Levels() {
		ex := dnn.Compile(sys.Models[lv], dnn.PlanConfig{}).NewExec()
		conf := ex.Posteriors(post, frame.Input)
		top := mat.ArgMax(post)
		sorted := append([]float64(nil), post...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		var bar strings.Builder
		for i := 0; i < 12 && i < len(sorted); i++ {
			bar.WriteString(spark(sorted[i]))
		}
		fmt.Printf("  %3d%%: top-1 class %3d  confidence %.3f  %s\n", lv, top, conf, bar.String())
	}
	fmt.Println("\n(each glyph is one class's probability, sorted descending —")
	fmt.Println(" watch the mass spread rightward as pruning increases)")
}

// spark maps a probability to a crude height glyph.
func spark(p float64) string {
	glyphs := []string{" ", ".", ":", "-", "=", "+", "*", "#", "@"}
	idx := int(p * float64(len(glyphs)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(glyphs) {
		idx = len(glyphs) - 1
	}
	return glyphs[idx]
}
