// The int8 forward pass lives in internal/qkern, which imports dnn;
// this external test package pins that compiling a dnn.Network for it
// is deterministic.
package dnn_test

import (
	"testing"

	"repro/internal/qkern"
)

// TestInt8Deterministic pins that two independent int8 compiles of the
// same pruned network produce bit-identical outputs — quantization has
// no hidden state, so the byte-stable int8 tables survive a rebuild.
func TestInt8Deterministic(t *testing.T) {
	net := prunedNet(t, 0.7)
	a, b := qkern.Compile(net), qkern.Compile(net)
	for i, f := range testFrames(testTopology(), 8) {
		x := append([]float64(nil), a.Logits(f)...)
		if !bitsEqual(x, b.Logits(f)) {
			t.Fatalf("frame %d: two int8 compiles disagree", i)
		}
	}
}
