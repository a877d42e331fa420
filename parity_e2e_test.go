// End-to-end pin of the kernels' bit-identity contract (DESIGN.md
// §6c) at asrdecode's surface: the same model decoded with each
// scoring kernel forced prints byte-identical output. The in-process
// plan tests and FuzzKernels pin the kernels; this test covers the
// binary's wiring of -backend, model loading and the printed report.
package repro_test

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestDecodeBackendParity decodes the 90%-pruned model with the dense
// and the CSR sparse kernels forced, and the block-pruned model with
// dense and bsr, and requires asrdecode -v's stdout — every transcript,
// the search statistics and the WER line — to match byte for byte.
func TestDecodeBackendParity(t *testing.T) {
	dir := buildOnce(t)
	decode := func(model, backend string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(dir, "bin", "asrdecode"), "-scale", "tiny", "-v",
			"-model", filepath.Join(dir, "models", model), "-backend", backend)
		cmd.Env = childEnv()
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("asrdecode -model %s -backend %s: %v\n%s", model, backend, err, stderr.Bytes())
		}
		return string(out)
	}
	for _, c := range []struct{ model, backend string }{
		{"tiny-prune90.model", "sparse"},
		{"tiny-block90.model", "bsr"},
	} {
		want := decode(c.model, "dense")
		if !strings.Contains(want, "\nWER: ") {
			t.Fatalf("%s: -backend dense printed no WER line:\n%s", c.model, want)
		}
		if got := decode(c.model, c.backend); got != want {
			t.Errorf("%s: -backend %s and -backend dense decode differently:\n--- dense\n%s--- %s\n%s",
				c.model, c.backend, want, c.backend, got)
		}
	}
}
