// End-to-end pin of the serving binaries' wiring: asrtrain writes the
// tiny models, two asrserve processes load a three-variant manifest
// (dense and sparse compilations of the 90%-pruned model, and the
// block-pruned model on bsr) and one asrrouter shards across them.
// Mixed-model transcripts must be byte-identical direct and routed,
// must stay identical across a SIGHUP hot-swap with sessions in
// flight, and every process must exit 0 on SIGTERM. The in-process
// topology is pinned by TestRoutedDecodeBitIdenticalToDirect; this
// test covers what only real processes have: flag parsing, manifest
// loading, the "listening on" line and signal handling.
package repro_test

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/asr"
	"repro/internal/serve"
	"repro/internal/speech"
)

// procTimeout bounds each wait on a child: its address line, a log
// line, its exit after SIGTERM.
const procTimeout = 30 * time.Second

// fleetVariants are the manifest's variants; utterance i decodes on
// fleetVariants[i].
var fleetVariants = []string{"tiny-dense", "tiny-sparse", "tiny-bsr"}

const fleetManifest = `{
  "default": "tiny-dense",
  "variants": [
    {"name": "tiny-dense",  "model": "tiny-prune90.model", "backend": "dense"},
    {"name": "tiny-sparse", "model": "tiny-prune90.model", "backend": "sparse"},
    {"name": "tiny-bsr",    "model": "tiny-block90.model", "backend": "bsr"}
  ]
}
`

// built holds the binaries and models that every repeat of the
// process tests (TestFleetProcesses, TestDecodeBackendParity) shares,
// so -count=N builds and trains once; TestMain removes dir.
var built struct {
	once sync.Once
	dir  string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if built.dir != "" {
		os.RemoveAll(built.dir)
	}
	os.Exit(code)
}

// buildOnce returns the directory holding bin/ and models/, building
// and training into it on first use, and skips the calling test where
// it cannot build.
func buildOnce(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds binaries and runs them as child processes")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH to build the binaries with")
	}
	built.once.Do(func() {
		if built.dir, built.err = os.MkdirTemp("", "e2e"); built.err == nil {
			built.err = buildBinaries(built.dir)
		}
	})
	if built.err != nil {
		t.Fatal(built.err)
	}
	return built.dir
}

// buildBinaries compiles asrserve, asrrouter and asrdecode into
// dir/bin, race-built when this test binary is, and asrtrain, which
// trains the tiny models into dir/models next to the manifest.
// asrtrain is never race-built: it serves nothing, and the race
// detector slows training about 18×.
func buildBinaries(dir string) error {
	race := "false"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" {
				race = s.Value
			}
		}
	}
	bin := filepath.Join(dir, "bin") + string(filepath.Separator)
	models := filepath.Join(dir, "models")
	for _, step := range [][]string{
		{"go", "build", "-race=" + race, "-o", bin, "./cmd/asrserve", "./cmd/asrrouter", "./cmd/asrdecode"},
		{"go", "build", "-o", bin, "./cmd/asrtrain"},
		{filepath.Join(bin, "asrtrain"), "-scale", "tiny", "-out", models},
	} {
		if out, err := exec.Command(step[0], step[1:]...).CombinedOutput(); err != nil {
			return fmt.Errorf("%s: %v\n%s", strings.Join(step, " "), err, out)
		}
	}
	return os.WriteFile(filepath.Join(models, "manifest.json"), []byte(fleetManifest), 0o644)
}

// childEnv is the environment of every child process: a race-built
// child otherwise sleeps a second before exiting.
func childEnv() []string {
	return append(os.Environ(), "GORACE="+os.Getenv("GORACE")+" atexit_sleep_ms=0")
}

func TestFleetProcesses(t *testing.T) {
	dir := buildOnce(t)
	bin := filepath.Join(dir, "bin")
	manifest := filepath.Join(dir, "models", "manifest.json")

	scale := asr.ScaleTiny()
	world, err := speech.NewWorld(scale.World)
	if err != nil {
		t.Fatal(err)
	}
	var utts [][][]float64 // one per variant
	for _, u := range world.SynthesizeSetNoisy(len(fleetVariants), scale.WordsPerUtt, 2002, scale.TestNoiseScale) {
		utts = append(utts, speech.SpliceAll(u.Frames, scale.Context))
	}

	serveArgs := []string{"-scale", "tiny", "-manifest", manifest, "-addr", "127.0.0.1:0"}
	b1 := startProc(t, filepath.Join(bin, "asrserve"), serveArgs...)
	b2 := startProc(t, filepath.Join(bin, "asrserve"), serveArgs...)
	rt := startProc(t, filepath.Join(bin, "asrrouter"), "-backends", b1.addr+","+b2.addr, "-addr", "127.0.0.1:0")

	// Routed sessions and, so that backend 1 surely holds some, direct
	// ones are half pushed when backend 1 hot-swaps. The reload rereads
	// the same files, so every transcript must equal the direct one
	// taken before.
	direct := stream(t, []string{b1.addr}, utts, nil)
	swapped := stream(t, []string{rt.addr, b1.addr}, utts, func() {
		if err := b1.cmd.Process.Signal(syscall.SIGHUP); err != nil {
			t.Fatal(err)
		}
		b1.await(t, "SIGHUP: reloaded")
	})
	for i, got := range swapped {
		path := "routed"
		if i >= len(utts) {
			path = "direct"
		}
		if want := direct[i%len(utts)]; got != want {
			t.Errorf("%s across the hot-swap: utterance %d decoded %s, direct before it %s", path, i%len(utts), got, want)
		}
	}

	for _, p := range []*proc{rt, b1, b2} {
		p.stop(t)
	}
}

// stream opens one session per utterance on each address in turn and
// pushes the first half of its frames; then it runs mid, if any, with
// every session in flight, and finishes them. It returns each
// session's words and final cost bits in opening order.
func stream(t *testing.T, addrs []string, utts [][][]float64, mid func()) []string {
	t.Helper()
	type session struct {
		cs   *serve.ClientSession
		rest [][]float64
	}
	var open []session
	defer func() {
		for _, s := range open {
			s.cs.Close()
		}
	}()
	push := func(cs *serve.ClientSession, frames [][]float64) {
		for _, f := range frames {
			if err := cs.PushFrame(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, addr := range addrs {
		for i, frames := range utts {
			model := fleetVariants[i]
			cs, err := serve.Dial(addr, serve.SessionOptions{ID: fmt.Sprintf("utt-%02d", i), Model: model})
			if err != nil {
				t.Fatalf("%s: utterance %d: %v", addr, i, err)
			}
			open = append(open, session{cs, frames[len(frames)/2:]})
			if cs.Model() != model {
				t.Fatalf("%s: utterance %d decodes on %q, asked for %q", addr, i, cs.Model(), model)
			}
			push(cs, frames[:len(frames)/2])
		}
	}
	if mid != nil {
		mid()
	}
	out := make([]string, len(open))
	for i, s := range open {
		push(s.cs, s.rest)
		rep, _, err := s.cs.Finish()
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		out[i] = fmt.Sprintf("%v cost %x", rep.Words, math.Float64bits(rep.Cost))
	}
	return out
}

// proc is one child server process.
type proc struct {
	name   string
	cmd    *exec.Cmd
	out    string        // file holding its stdout and stderr
	addr   string        // from its "listening on HOST:PORT" line
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result
}

// startProc runs bin and waits for its address line. A cleanup kills
// and reaps the child, so no failure leaves it running.
func startProc(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close() // the child keeps its own descriptor
	p := &proc{name: filepath.Base(bin), cmd: exec.Command(bin, args...), out: out.Name(), exited: make(chan struct{})}
	p.cmd.Env = childEnv()
	p.cmd.Stdout, p.cmd.Stderr = out, out
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.exited)
	}()
	t.Cleanup(func() {
		_ = p.cmd.Process.Kill()
		<-p.exited
	})
	p.addr = p.await(t, "listening on ")
	return p
}

// await waits until the child has printed a whole line containing
// text and returns the rest of that line.
func (p *proc) await(t *testing.T, text string) string {
	t.Helper()
	deadline := time.After(procTimeout)
	for {
		if _, rest, ok := strings.Cut(p.output(), text); ok {
			if line, _, ok := strings.Cut(rest, "\n"); ok {
				return line
			}
		}
		select {
		case <-p.exited:
			t.Fatalf("%s exited (%v) before printing %q\n%s", p.name, p.err, text, p.output())
		case <-deadline:
			t.Fatalf("%s printed no %q within %v\n%s", p.name, text, procTimeout, p.output())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM and requires the child to drain and exit 0.
func (p *proc) stop(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.exited:
	case <-time.After(procTimeout):
		t.Fatalf("%s still running %v after SIGTERM\n%s", p.name, procTimeout, p.output())
	}
	if p.err != nil {
		t.Errorf("%s did not drain cleanly: %v\n%s", p.name, p.err, p.output())
	}
}

// output is the child's output so far; an unreadable file reads as
// none, which await then reports as a timeout.
func (p *proc) output() string {
	b, _ := os.ReadFile(p.out)
	return string(b)
}
