// Command darkside regenerates every table and figure of the paper's
// evaluation from the reproduced system.
//
// Usage:
//
//	darkside [-scale tiny|small|paper] [-only fig11,fig12,...] [-workers n]
//	         [-metrics-addr localhost:9090] [-v]
//
// With no -only flag, all experiments run in paper order. Decoding
// fans out over the engine's worker pools (-workers 1 forces the
// serial reference path; the output is identical either way). Models
// score on auto plans; the kernels are bit-identical, so tables do not
// depend on the kernel choice (asrdecode's -backend forces one).
//
// -metrics-addr serves the internal/obs registry over HTTP while the
// run is in flight (/metrics JSON, /metrics/text, /debug/pprof/); -v
// enables observation and prints the text summary to stderr at the
// end. Both are off the determinism path: tables are bit-identical
// with metrics on or off. docs/OBSERVABILITY.md catalogues the
// metric names.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/asr"
	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("darkside: ")
	scaleName := flag.String("scale", "small", "experiment scale: tiny, small or paper")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. fig3,fig11); empty = all")
	csvOut := flag.Bool("csv", false, "emit CSV instead of aligned text")
	workers := flag.Int("workers", 0, "engine worker-pool width per level (0 = one per core, 1 = serial)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address (enables observation)")
	verbose := flag.Bool("v", false, "enable observation and print the metrics summary to stderr at the end")
	flag.Parse()

	if *verbose {
		obs.Enable()
	}
	obs.ServeBackground(*metricsAddr)

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

	wanted := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			wanted[id] = true
		}
	}
	want := func(id string) bool { return len(wanted) == 0 || wanted[id] }

	start := time.Now()
	log.Printf("building system at scale %q (train %d utts, test %d utts)...",
		scale.Name, scale.TrainUtts, scale.TestUtts)
	sys, err := experiments.SystemFor(scale)
	if err != nil {
		log.Fatal(err)
	}
	// The engine fans utterances and matrix configs over worker pools;
	// results are identical at any width (index-ordered aggregation).
	sys.Engine = asr.EngineConfig{UttWorkers: *workers, CfgWorkers: *workers}
	poolWidth := *workers
	if poolWidth <= 0 {
		poolWidth = runtime.GOMAXPROCS(0)
	}
	log.Printf("system ready in %.1fs: %d senones, graph %d states / %d arcs, %d decode workers",
		time.Since(start).Seconds(), sys.World.NumSenones(),
		sys.Graph.NumStates(), sys.Graph.NumArcs(), poolWidth)

	type gen struct {
		id string
		fn func() (*experiments.Table, error)
	}
	gens := []gen{
		{"fig1", func() (*experiments.Table, error) { return experiments.Fig1(sys) }},
		{"fig2", func() (*experiments.Table, error) { return experiments.Fig2(sys) }},
		{"table1", func() (*experiments.Table, error) { return experiments.Table1(sys) }},
		{"fig3", func() (*experiments.Table, error) { return experiments.Fig3(sys) }},
		{"fig4", func() (*experiments.Table, error) { return experiments.Fig4(sys) }},
		{"fig5", func() (*experiments.Table, error) { return experiments.Fig5(sys) }},
		{"fig7", func() (*experiments.Table, error) { return experiments.Fig7(sys) }},
		{"fig8", func() (*experiments.Table, error) { return experiments.Fig8() }},
		{"fig9", func() (*experiments.Table, error) { return experiments.Fig9(sys) }},
		{"table2", experiments.Table2},
		{"table3", experiments.Table3},
		{"util", func() (*experiments.Table, error) { return experiments.UtilizationTable(sys) }},
		{"fig11", func() (*experiments.Table, error) { return experiments.Fig11(sys) }},
		{"fig12", func() (*experiments.Table, error) { return experiments.Fig12(sys) }},
		{"tail", func() (*experiments.Table, error) { return experiments.TailLatency(sys) }},
		{"headline", func() (*experiments.Table, error) { return experiments.Headline(sys) }},
		// extensions beyond the paper's evaluation (see DESIGN.md §8)
		{"quant", func() (*experiments.Table, error) { return experiments.QuantTable(sys) }},
		{"int8", func() (*experiments.Table, error) { return experiments.Int8Table(sys) }},
		{"gmm", func() (*experiments.Table, error) { return experiments.GMMTable(sys) }},
		{"maxactive", func() (*experiments.Table, error) { return experiments.MaxActiveTable(sys) }},
		{"unfold", func() (*experiments.Table, error) { return experiments.UnfoldTable(sys) }},
		{"adaptive", func() (*experiments.Table, error) { return experiments.AdaptiveMatrix(sys) }},
		{"block", func() (*experiments.Table, error) { return experiments.BlockTable(sys) }},
	}

	for _, g := range gens {
		if !want(g.id) {
			continue
		}
		t0 := time.Now()
		table, err := g.fn()
		if err != nil {
			log.Fatalf("%s: %v", g.id, err)
		}
		if *csvOut {
			fmt.Printf("# %s: %s\n", table.ID, table.Title)
			if err := table.WriteCSV(os.Stdout); err != nil {
				log.Fatalf("%s: csv: %v", g.id, err)
			}
			fmt.Println()
		} else {
			table.Fprint(os.Stdout)
		}
		fmt.Fprintf(os.Stderr, "[%s in %.1fs]\n", g.id, time.Since(t0).Seconds())
	}

	if *verbose {
		if err := obs.Default.WriteText(os.Stderr); err != nil {
			log.Printf("metrics summary: %v", err)
		}
	}
}
