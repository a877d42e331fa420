// Command benchmark is the repo's one benchmark: it follows a frame
// from the client's PushFrame through wire, queue, forward pass,
// search and reply, on four workloads in which each layer dominates
// once and is bypassed once. It drives cmd/asrserve and cmd/asrrouter
// as child processes over the public client API, checks every
// transcript against an in-process reference decode, and measures the
// layers from outside. README.md documents workloads, metrics, the
// surface it depends on, and how to read the output.
//
// Run it through run.sh, which builds the three binaries into
// benchmark/.build/ first:
//
//	bash benchmark/run.sh                                   # all workloads, both passes
//	bash benchmark/run.sh --workload direct-dense --trace 0 # one workload, end-to-end metrics
//	bash benchmark/run.sh --workload direct-dense --trace 1 # one workload, per-layer metrics
//	bash benchmark/run.sh --repeat 10                       # repeatability report, one seed
//	bash benchmark/run.sh --seeds 10                        # the same over ten seeds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	name := flag.String("workload", "", "workload to run (empty = all four, each in its own process)")
	seed := flag.Int64("seed", 1, "corpus seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 24, "how long one run measures")
	trace := flag.Int("trace", 0, "0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
	repeat := flag.Int("repeat", 0, "run N full sets on the one seed and report every metric's spread against its bound")
	seeds := flag.Int("seeds", 0, "run the untraced pass on N consecutive seeds and report every metric's spread against its bound")
	flag.Parse()

	endChildrenOnSignal()
	if err := run(*name, *seed, *seconds, *trace, *repeat, *seeds); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace, repeat, seeds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	d, err := locate(self)
	if err != nil {
		return err
	}
	if name == "" {
		return runAll(self, d, seed, seconds, repeat, seeds)
	}
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	sz := fullSizing()
	e, trainS, err := prepare(w, sz, d, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "workload %s  seed %d  corpus %d utterances %d frames hash %016x  scale %s  train_s %.1f\n",
		w.Name, seed, len(e.corpus.Utts), e.corpus.Frames, e.corpus.Hash, sz.Scale.Name, trainS)

	var res result
	specs := endToEnd
	if trace == 0 {
		res, err = e.measure(seconds)
	} else {
		specs = perLayer
		res, err = e.layers(seconds)
	}
	if err != nil {
		return err
	}
	printHuman(os.Stderr, specs, res)
	if err := printJSON(os.Stdout, specs, res); err != nil {
		return err
	}
	if res.tally.mismatched > 0 {
		return fmt.Errorf("%d of %d sessions returned a transcript that differs from the reference decode", res.tally.mismatched, res.tally.attempted)
	}
	return nil
}

// locate finds the directories from where run.sh put this binary: it
// must sit beside asrserve and asrrouter, and the working directory
// must be the repository root.
func locate(self string) (dirs, error) {
	bin := filepath.Dir(self)
	for _, b := range []string{"asrserve", "asrrouter"} {
		if _, err := os.Stat(filepath.Join(bin, b)); err != nil {
			return dirs{}, fmt.Errorf("%s is not beside this binary; run the benchmark through benchmark/run.sh", b)
		}
	}
	if _, err := os.Stat(filepath.Join("benchmark", "run.sh")); err != nil {
		return dirs{}, fmt.Errorf("the working directory must be the repository root: %w", err)
	}
	return dirs{bin: bin, cache: filepath.Join("benchmark", ".cache"), out: filepath.Join("benchmark", "out")}, nil
}

// printHuman lists every metric by name with value, unit, sample count
// and (end-to-end only) regression bound.
func printHuman(f *os.File, specs []metricSpec, res result) {
	for _, m := range specs {
		line := fmt.Sprintf("  %-40s %14.4f %-9s n=%-5d", m.Name, res.values[m.Name], m.Unit, res.samples[m.Name])
		if m.Bound > 0 {
			line += fmt.Sprintf(" bound %.0f%% (%s is better)", 100*m.Bound, m.Better)
		}
		fmt.Fprintln(f, line)
	}
	for _, l := range res.ledger {
		fmt.Fprintln(f, l)
	}
	fmt.Fprintf(f, "  attempted %d  failed %d  mismatched %d\n", res.tally.attempted, res.tally.failed, res.tally.mismatched)
	if res.tally.firstErr != nil {
		fmt.Fprintf(f, "  first error: %v\n", res.tally.firstErr)
	}
}

// wireResult is the one-line contract with whatever drives the
// benchmark: the last line of standard output.
type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printJSON(f *os.File, specs []metricSpec, res result) error {
	out := wireResult{
		Correct:   res.tally.mismatched == 0,
		Attempted: res.tally.attempted,
		Failed:    res.tally.failed,
		Metrics:   map[string]wireMetric{},
	}
	for _, m := range specs {
		out.Metrics[m.Name] = wireMetric{Value: res.values[m.Name], Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	return err
}
