package dnn

import (
	"bytes"
	"encoding/gob"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mat"
	"repro/internal/sparse"
)

func encodeGob(w io.Writer, v any) error { return gob.NewEncoder(w).Encode(v) }

func TestSaveLoadFileRoundTrip(t *testing.T) {
	net := testTopology().Build(mat.NewRNG(20))
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	if err := net.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.InDim() != net.InDim() || loaded.OutDim() != net.OutDim() {
		t.Fatalf("shape mismatch after file round trip")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.bin")); err == nil {
		t.Fatalf("missing file accepted")
	}
	if _, err := LoadFile(os.DevNull); err == nil {
		t.Fatalf("empty stream accepted")
	}
}

func TestLoadRejectsWrongFormatVersion(t *testing.T) {
	net := testTopology().Build(mat.NewRNG(21))
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// re-decode into the raw struct, bump the version, re-encode
	// (simplest: corrupt the version byte region is fragile; instead
	// exercise the inconsistent-shape path below)
	sl := savedLayer{Kind: "fc", Name: "x", In: 2, Out: 2,
		Weights: []float64{1}, Biases: []float64{0, 0}}
	bad := savedNetwork{Format: formatVersion, Layers: []savedLayer{sl}}
	var buf2 bytes.Buffer
	if err := encodeGob(&buf2, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf2); err == nil {
		t.Fatalf("inconsistent layer shapes accepted")
	}

	future := savedNetwork{Format: formatVersion + 1}
	var buf3 bytes.Buffer
	if err := encodeGob(&buf3, future); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf3); err == nil {
		t.Fatalf("future format accepted")
	}

	empty := savedNetwork{Format: formatVersion}
	var buf4 bytes.Buffer
	if err := encodeGob(&buf4, empty); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf4); err == nil {
		t.Fatalf("empty model accepted")
	}

	unknown := savedNetwork{Format: formatVersion, Layers: []savedLayer{{Kind: "mystery"}}}
	var buf5 bytes.Buffer
	if err := encodeGob(&buf5, unknown); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf5); err == nil {
		t.Fatalf("unknown layer kind accepted")
	}
}

// layerOf returns sn's first layer of the given kind.
func layerOf(sn *savedNetwork, kind string) *savedLayer {
	for i := range sn.Layers {
		if sn.Layers[i].Kind == kind {
			return &sn.Layers[i]
		}
	}
	panic("no " + kind + " layer")
}

// corruptions are well-formed gobs of corrupt networks: each edits one
// field of a saved testTopology net into a shape a layer constructor
// or Compile would panic on.
var corruptions = []struct {
	name    string
	corrupt func(sn *savedNetwork)
}{
	{"pnorm group does not divide input", func(sn *savedNetwork) { layerOf(sn, "pnorm").Group = 3 }},
	{"pnorm group zero", func(sn *savedNetwork) { layerOf(sn, "pnorm").Group = 0 }},
	{"renorm dimension zero", func(sn *savedNetwork) { layerOf(sn, "renorm").In = 0 }},
	{"layers do not chain", func(sn *savedNetwork) { layerOf(sn, "renorm").In += 4 }},
	{"mask length", func(sn *savedNetwork) { layerOf(sn, "fc").Mask = []bool{true} }},
	{"block above max", func(sn *savedNetwork) { layerOf(sn, "fc").Block = sparse.MaxBlock + 1 }},
	{"block negative", func(sn *savedNetwork) { layerOf(sn, "fc").Block = -1 }},
	{"fc shape overflows", func(sn *savedNetwork) {
		fc := layerOf(sn, "fc")
		fc.In, fc.Out, fc.Weights, fc.Biases = 1<<62, 4, nil, make([]float64, 4)
	}},
}

// savedModel returns net's saved bytes after edit (nil = unedited).
func savedModel(tb testing.TB, net *Network, edit func(sn *savedNetwork)) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	if edit == nil {
		return buf.Bytes()
	}
	var sn savedNetwork
	if err := gob.NewDecoder(&buf).Decode(&sn); err != nil {
		tb.Fatal(err)
	}
	edit(&sn)
	buf.Reset()
	if err := encodeGob(&buf, sn); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsCorruptModel pins that a well-formed gob holding a
// corrupt network is refused with an error, never a panic: Load is
// the SIGHUP reload path of a live server.
func TestLoadRejectsCorruptModel(t *testing.T) {
	net := testTopology().Build(mat.NewRNG(25))
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			data := savedModel(t, net, c.corrupt)
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Load panicked: %v", r)
				}
			}()
			if _, err := Load(bytes.NewReader(data)); err == nil {
				t.Fatal("corrupt model accepted")
			}
		})
	}
}

// pruneTiles masks every trainable FC of net in block×block tiles,
// keeping one tile in three; block 1 is an unstructured mask.
func pruneTiles(net *Network, block int) {
	for _, fc := range net.FCs() {
		if !fc.Trainable {
			continue
		}
		cols := fc.InDim()
		fc.Mask = make([]bool, len(fc.W.Data))
		for i := range fc.Mask {
			fc.Mask[i] = (i/cols/block+i%cols/block)%3 == 0
		}
		if block > 1 {
			fc.BlockSize = block
		}
		fc.ApplyMask()
	}
}

// FuzzLoad feeds Load arbitrary bytes, seeded with a saved dense, a
// pruned and a block-pruned net and every corruption above. Load must
// never panic, and every net it accepts must compile under each
// backend and score a frame without panicking: a model file is
// untrusted input that a SIGHUP reload hands to a live server.
func FuzzLoad(f *testing.F) {
	for _, block := range []int{0, 1, 8} {
		net := testTopology().Build(mat.NewRNG(26))
		if block > 0 {
			pruneTiles(net, block)
		}
		f.Add(savedModel(f, net, nil))
	}
	net := testTopology().Build(mat.NewRNG(25))
	for _, c := range corruptions {
		f.Add(savedModel(f, net, c.corrupt))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		x := make([]float64, net.InDim())
		dst := make([]float64, net.OutDim())
		for _, b := range []Backend{BackendAuto, BackendDense, BackendSparse, BackendBSR} {
			Compile(net, PlanConfig{Backend: b}).NewExec().LogPosteriors(dst, x)
		}
	})
}

func TestStepOnUntrainedLayerIsNoOp(t *testing.T) {
	fc := NewFC("x", 3, 2, 0.5, mat.NewRNG(22))
	fc.Trainable = false
	before := append([]float64(nil), fc.W.Data...)
	fc.Step(0.1, 0)
	for i := range before {
		if fc.W.Data[i] != before[i] {
			t.Fatalf("frozen layer mutated")
		}
	}
}

func TestTrainEmptySamples(t *testing.T) {
	net := testTopology().Build(mat.NewRNG(23))
	if loss := NewTrainer(net).Train(nil, DefaultTrainConfig()); loss != 0 {
		t.Fatalf("empty training returned loss %v", loss)
	}
}

func TestStepLabelOutOfRangePanics(t *testing.T) {
	net := testTopology().Build(mat.NewRNG(24))
	tr := NewTrainer(net)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	tr.step(Sample{Input: make([]float64, net.InDim()), Label: 999})
}
