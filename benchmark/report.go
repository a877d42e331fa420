package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// exactMetrics are counts, not timings: on one seed they must be
// identical on every run, and a host-only optimisation must not move
// them.
var exactMetrics = []string{
	"serve.wire_bytes_per_frame", "wfst.states", "wfst.arcs",
	"dnn.kernels", "dnn.weight_bytes_per_frame", "dnn.flops_per_frame",
	"decoder.hyps_per_frame", "decoder.mean_active", "decoder.max_active",
	"core.store_overflows", "core.store_collisions",
	"viterbisim.cycles_per_frame_unbounded", "viterbisim.cycles_per_frame_nbest",
}

// runAll is the one command: every workload, each in a generator
// process of its own against freshly started servers so no number
// depends on workload order — first untraced (end-to-end), then traced
// (per-layer, ledger). With repeat > 1 it runs that many full sets on
// the one seed, so every set replays identical work, and reports every
// metric's spread against its bound. With seeds > 0 it runs the
// untraced pass alone on that many consecutive seeds and reports the
// same spread: what an outside checker, who picks his own seeds, sees.
func runAll(self string, d dirs, seed int64, seconds float64, repeat, seeds int) error {
	sets, traces, seedStep := repeat, 2, int64(0)
	if seeds > 0 {
		sets, traces, seedStep = seeds, 1, 1
	}
	if sets < 1 {
		sets = 1
	}
	// values[trace][workload][metric] lists one value per set.
	var values [2]map[string]map[string][]float64
	for t := range values {
		values[t] = map[string]map[string][]float64{}
		for _, w := range workloads {
			values[t][w.Name] = map[string][]float64{}
		}
	}
	var problems []string
	for set := 0; set < sets; set++ {
		for _, w := range workloads {
			for trace := 0; trace < traces; trace++ {
				s := seed + int64(set)*seedStep
				fmt.Fprintf(os.Stderr, "--- set %d/%d  %s  seed %d  trace %d\n", set+1, sets, w.Name, s, trace)
				out, err := runChild(self, w.Name, s, seconds, trace)
				if err != nil {
					return fmt.Errorf("%s (trace %d): %w", w.Name, trace, err)
				}
				if !out.Correct || out.Failed > 0 {
					problems = append(problems, fmt.Sprintf("%s (trace %d, set %d): correct=%v, %d of %d failed", w.Name, trace, set+1, out.Correct, out.Failed, out.Attempted))
				}
				for name, m := range out.Metrics {
					values[trace][w.Name][name] = append(values[trace][w.Name][name], m.Value)
				}
			}
		}
	}

	printTable(os.Stdout, "end-to-end metrics (untraced run; median over sets)", endToEnd, values[0])
	if traces == 2 {
		printTable(os.Stdout, "per-layer metrics (traced run; median over sets)", perLayer, values[1])
		for _, w := range workloads {
			ledger, err := os.ReadFile(filepath.Join(d.out, "ledger-"+w.Name+".txt"))
			if err != nil {
				return err
			}
			fmt.Printf("\n%s", ledger)
			if !ledgerOK(ledger, w.Name) {
				problems = append(problems, "ledger self-check failed on "+w.Name)
			}
		}
	}
	if sets > 1 {
		problems = append(problems, printSpread(os.Stdout, values[0])...)
		if traces == 2 {
			problems = append(problems, printExact(os.Stdout, values[1])...)
		}
	}
	fmt.Println()
	for _, p := range problems {
		fmt.Println("PROBLEM:", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problem(s), listed above", len(problems))
	}
	fmt.Println("all transcripts correct, no failed session, nothing over its bound")
	return nil
}

// ledgerOK reads the verdict off a ledger file's header line. Rule
// lines end in ": ok" too, so only the header counts.
func ledgerOK(ledger []byte, workload string) bool {
	return bytes.HasPrefix(ledger, []byte(ledgerHeader(workload, true)+"\n"))
}

// runChild runs one workload in a process of its own and parses the
// result line. The child's stderr (progress, sample counts) passes
// through.
func runChild(self, workload string, seed int64, seconds float64, trace int) (wireResult, error) {
	args := []string{
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	var out wireResult
	if err := cmd.Start(); err != nil {
		return out, err
	}
	trackChild(cmd.Process, syscall.SIGTERM)
	err := cmd.Wait()
	untrackChild(cmd.Process)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if perr := json.Unmarshal([]byte(lines[len(lines)-1]), &out); perr != nil {
		if err != nil {
			return out, err
		}
		return out, fmt.Errorf("no result line: %w", perr)
	}
	// A child that printed a result and then exited non-zero found
	// wrong transcripts; the result line already says so.
	return out, nil
}

func printTable(f io.Writer, title string, specs []metricSpec, values map[string]map[string][]float64) {
	fmt.Fprintf(f, "\n== %s ==\n", title)
	fmt.Fprintf(f, "%-40s %-9s %6s", "metric", "unit", "bound")
	for _, w := range workloads {
		fmt.Fprintf(f, " %17s", w.Name)
	}
	fmt.Fprintln(f)
	for _, m := range specs {
		bound := ""
		if m.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
		}
		fmt.Fprintf(f, "%-40s %-9s %6s", m.Name, m.Unit, bound)
		for _, w := range workloads {
			fmt.Fprintf(f, " %17.4f", median(values[w.Name][m.Name]))
		}
		fmt.Fprintln(f)
	}
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method),
// so this report and an outside checker agree to the digit.
func quartiles(x []float64) (q1, q3 float64) {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	const n = 4
	at := func(i int) float64 {
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

// printSpread is the repeatability report: per end-to-end metric and
// workload the median, the quartiles and their distance as a share of
// the median against the bound. It returns what exceeds a bound.
func printSpread(f io.Writer, values map[string]map[string][]float64) (problems []string) {
	fmt.Fprintf(f, "\n== repeatability: spread = (q3-q1)/median ==\n")
	fmt.Fprintf(f, "%-18s %-18s %5s %14s %14s %14s %8s %6s\n", "workload", "metric", "n", "median", "q1", "q3", "spread", "bound")
	for _, w := range workloads {
		for _, m := range endToEnd {
			v := values[w.Name][m.Name]
			q1, q3 := quartiles(v)
			med := median(v)
			spread := (q3 - q1) / med
			verdict := ""
			if spread > m.Bound {
				verdict = "  SPREAD OVER BOUND"
				problems = append(problems, fmt.Sprintf("%s %s: spread %.1f%% exceeds its bound %.0f%%", w.Name, m.Name, 100*spread, 100*m.Bound))
			}
			fmt.Fprintf(f, "%-18s %-18s %5d %14.4f %14.4f %14.4f %7.2f%% %5.0f%%%s\n",
				w.Name, m.Name, len(v), med, q1, q3, 100*spread, 100*m.Bound, verdict)
		}
	}
	return problems
}

// printExact checks that the counts of the traced runs, all on one
// seed, are identical on every set.
func printExact(f io.Writer, values map[string]map[string][]float64) (problems []string) {
	fmt.Fprintf(f, "\n== exact counts (traced runs, one seed): must be identical on every set ==\n")
	for _, w := range workloads {
		for _, name := range exactMetrics {
			v := values[w.Name][name]
			for _, x := range v {
				if math.Float64bits(x) != math.Float64bits(v[0]) {
					problems = append(problems, fmt.Sprintf("%s %s differs between sets: %v", w.Name, name, v))
					fmt.Fprintf(f, "%-18s %-40s DIFFERS %v\n", w.Name, name, v)
					break
				}
			}
		}
	}
	if len(problems) == 0 {
		fmt.Fprintln(f, "identical on every set")
	}
	return problems
}
