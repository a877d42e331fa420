package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// testCache is the model cache the package's tests share, so the tiny
// models are trained once per test binary, not once per test.
var testCache string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchmark-test-cache")
	if err != nil {
		panic(err)
	}
	testCache = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestManifestMatchesCode pins BENCHMARK.json to the tables in
// spec.go: a metric or workload renamed in one place only would make
// the benchmark print names its manifest does not declare.
func TestManifestMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var manifest struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(manifest.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v, want [benchmark]", manifest.Paths)
	}
	if !reflect.DeepEqual(manifest.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command = %v", manifest.Command)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, code has %d", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := manifest.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: manifest %+v, code {%s %s}", i, got, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, code has %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: manifest %+v, code %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.Bound) {
				t.Errorf("%s %s: manifest bound %v, code %v", kind, m.Name, g.Bound, m.Bound)
			}
		}
	}
	check("end_to_end", manifest.EndToEnd, endToEnd, true)
	check("per_layer", manifest.PerLayer, perLayer, false)
}

func TestCorpusFollowsSeedAndMix(t *testing.T) {
	sz := smokeSizing()
	a, err := generateCorpus(sz.Scale, mixNoisy, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generateCorpus(sz.Scale, mixNoisy, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := generateCorpus(sz.Scale, mixNoisy, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash || a.Frames != b.Frames {
		t.Errorf("same seed: hash %x/%x, frames %d/%d", a.Hash, b.Hash, a.Frames, b.Frames)
	}
	if a.Hash == c.Hash {
		t.Errorf("seeds 7 and 8 gave the same corpus hash %x", a.Hash)
	}
	for _, corpus := range []*corpus{a, c} {
		counts := map[string]int{}
		for _, u := range corpus.Utts {
			counts[u.Profile]++
		}
		want := map[string]int{"baseline": 2, "noisy": 8, "wide-vocab": 4, "long-utt": 2}
		if !reflect.DeepEqual(counts, want) {
			t.Errorf("profile counts %v, want %v on every seed", counts, want)
		}
	}
	if _, err := generateCorpus(sz.Scale, mixNoisy, 12, 7); err == nil {
		t.Error("12 utterances do not split 1:4:2:1, want an error")
	}
}

// TestQuartilesMatchPython pins the repeat report's quartiles to
// statistics.quantiles(values, n=4), the definition an outside checker
// uses.
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4)
	// [1.75, 3.5, 5.25]
	q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q3 != 5.25 {
		t.Errorf("quartiles = %v, %v; want 1.75, 5.25", q1, q3)
	}
	// >>> statistics.quantiles([10, 20], n=4)
	// [7.5, 22.5]
	if q1, q3 = quartiles([]float64{20, 10}); q1 != 7.5 || q3 != 22.5 {
		t.Errorf("quartiles of two = %v, %v; want 7.5, 22.5", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestLedgerVerdictIsTheHeader: direct-dense has two rules. When
// forward loses its majority while search stays small, the ledger still
// holds a rule line ending in ": ok"; it must read as failed all the
// same, or the self-check is dead on the one workload with two rules.
func TestLedgerVerdictIsTheHeader(t *testing.T) {
	w, _ := findWorkload("direct-dense")
	e := &env{w: w, sz: fullSizing(), corpus: &corpus{Utts: make([]utterance, 1), Frames: 100}}
	for _, c := range []struct {
		forwardUS float64
		ok        bool
	}{{60, true}, {20, false}} {
		res := newResult()
		res.set("serve.wire_encode_us", 7, 1)
		res.set("serve.wire_decode_us", 15, 1)
		res.set("dnn.forward_us", c.forwardUS, 1)
		res.set("decoder.push_us", 2, 1)
		e.ledger(120, nil, &res)
		file := []byte(strings.Join(res.ledger, "\n") + "\n")
		if !strings.Contains(string(file), "want at most 10%: ok\n") {
			t.Fatalf("forward %v us: the search rule should hold:\n%s", c.forwardUS, file)
		}
		if got := ledgerOK(file, w.Name); got != c.ok {
			t.Errorf("forward %v us: ledgerOK = %v, want %v:\n%s", c.forwardUS, got, c.ok, file)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	root := tr.begin("session", "s0", -1)
	tr.frames(root, 4)
	for i := 0; i < 2; i++ {
		sp := tr.begin("serve.client_push", "s0", root)
		time.Sleep(2 * time.Millisecond)
		tr.end(sp)
	}
	tr.end(root)
	other := tr.begin("session", "replay-0", -1)
	tr.frames(other, 1)
	tr.end(other)

	self := tr.selfTimes()
	total := time.Duration(tr.spans[root].EndNS - tr.spans[root].StartNS)
	if got := self[root] + self[1] + self[2]; got != total {
		t.Errorf("self times sum to %v, span lasted %v", got, total)
	}
	push := stageUS(tr.sessions(), roundID, "serve.client_push", true)
	if len(push) != 1 || push[0] < 1000 {
		t.Errorf("push per frame = %v, want one session at >= 1000 us (4 ms over 4 frames)", push)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", "", -1)) // the untraced run must not panic
}

// smokeEnv prepares a workload at smoke sizing with everything it
// writes under the test's temp directory.
func smokeEnv(t *testing.T, name string, bin string, seed int64) *env {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	tmp := t.TempDir()
	e, _, err := prepare(w, smokeSizing(), dirs{bin: bin, cache: testCache, out: filepath.Join(tmp, "out")}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestExactCountsRepeat is the determinism contract of the traced run:
// the same seed gives the same wire bytes, search counts and simulated
// cycles, bit for bit.
func TestExactCountsRepeat(t *testing.T) {
	var runs [2]result
	for i := range runs {
		e := smokeEnv(t, "direct-bsr-noisy", "", 3)
		runs[i] = newResult()
		tr := newTracer()
		eng, err := e.traceSetup(tr, &runs[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := e.replayStages(eng, tr, &runs[i]); err != nil {
			t.Fatal(err)
		}
		if runs[i].tally.mismatched != 0 {
			t.Errorf("run %d: %d replayed transcripts differ from the reference", i, runs[i].tally.mismatched)
		}
	}
	for _, name := range exactMetrics {
		a, ok := runs[0].values[name]
		if !ok {
			t.Errorf("%s was not reported", name)
		}
		if b := runs[1].values[name]; math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s: %v then %v on the same seed", name, a, b)
		}
	}
	if runs[0].values["decoder.hyps_per_frame"] <= 0 || runs[0].values["viterbisim.cycles_per_frame_nbest"] <= 0 {
		t.Errorf("search counts are not positive: %v", runs[0].values)
	}
}

// buildServers compiles the two server commands the benchmark drives.
func buildServers(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and starts server processes")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH to build the servers with")
	}
	bin := t.TempDir()
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/asrserve", "./cmd/asrrouter")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building the servers: %v\n%s", err, out)
	}
	return bin
}

// TestServedSmoke drives real child processes: every transcript that
// comes back must equal the in-process reference decode, sessions must
// replay the corpus in order, and the servers must drain cleanly.
func TestServedSmoke(t *testing.T) {
	bin := buildServers(t)
	for _, name := range []string{"direct-bsr-noisy", "fleet-fanin"} {
		t.Run(name, func(t *testing.T) {
			e := smokeEnv(t, name, bin, 5)
			rig, err := e.open("test", false, 1)
			if err != nil {
				t.Fatal(err)
			}
			n := len(e.corpus.Utts)
			r := rig.round(2*n, 3, nil)
			for i, o := range r.outcomes {
				if o.err != nil || o.mismatch {
					t.Errorf("session %d: err %v, mismatch %v", i, o.err, o.mismatch)
				}
				if want := len(e.corpus.Utts[i%n].Frames); o.frames != want {
					t.Errorf("session %d carried %d frames, utterance %d has %d", i, o.frames, i%n, want)
				}
			}
			if cpu, err := rig.cpuSeconds(); err != nil || cpu < 0 {
				t.Errorf("cpuSeconds = %v, %v", cpu, err)
			}
			if mb, err := rig.peakMB(); err != nil || mb <= 0 {
				t.Errorf("peakMB = %v, %v", mb, err)
			}
			if err := rig.close(); err != nil {
				t.Errorf("servers did not drain cleanly: %v", err)
			}
		})
	}
}

// TestOfflineSmoke checks the offline pool against its own serial
// pass: both transcripts and both simulated cycle totals repeat on
// every worker.
func TestOfflineSmoke(t *testing.T) {
	e := smokeEnv(t, "offline-sim", "", 5)
	res, err := e.measure(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.tally.attempted == 0 || res.tally.failed != 0 || res.tally.mismatched != 0 {
		t.Errorf("tally %+v, want sessions and no failures", res.tally)
	}
	for _, m := range endToEnd {
		if v := res.values[m.Name]; !(v > 0) {
			t.Errorf("%s = %v, want a positive number", m.Name, v)
		}
	}
}
