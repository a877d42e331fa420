package registry

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dnn"
	"repro/internal/mat"
)

// testTopo is a tiny but legal topology; different seeds give variants
// with genuinely different weights so a registry mix-up would be
// visible in the scores.
var testTopo = dnn.Topology{
	FeatDim: 4, Context: 1, Hidden: 16, PoolGroup: 4,
	HiddenBlocks: 1, Senones: 10,
}

func testNet(t *testing.T, seed int64) *dnn.Network {
	t.Helper()
	return testTopo.Build(mat.NewRNG(seed))
}

func TestRegisterResolveDefault(t *testing.T) {
	r := New()
	if _, ok := r.Resolve(""); ok {
		t.Error("empty registry resolved the default")
	}
	if r.OutDim() != 0 {
		t.Errorf("empty registry OutDim() = %d, want 0", r.OutDim())
	}

	a, err := r.Register("base-dense", "", testNet(t, 1), dnn.BackendDense)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Register("pruned-sparse", "", testNet(t, 2), dnn.BackendSparse)
	if err != nil {
		t.Fatal(err)
	}

	// First registration is the default.
	if got := r.Default(); got != "base-dense" {
		t.Errorf("Default() = %q, want base-dense", got)
	}
	if v, ok := r.Resolve(""); !ok || v != a {
		t.Errorf("Resolve(\"\") = %v, %v; want the default variant", v, ok)
	}
	if v, ok := r.Resolve("pruned-sparse"); !ok || v != b {
		t.Errorf("Resolve(pruned-sparse) = %v, %v", v, ok)
	}
	if _, ok := r.Resolve("nope"); ok {
		t.Error("Resolve(nope) succeeded")
	}
	if got := r.Names(); len(got) != 2 || got[0] != "base-dense" || got[1] != "pruned-sparse" {
		t.Errorf("Names() = %v, want sorted pair", got)
	}
	if r.Len() != 2 {
		t.Errorf("Len() = %d, want 2", r.Len())
	}
	if r.OutDim() != testTopo.Senones {
		t.Errorf("OutDim() = %d, want %d", r.OutDim(), testTopo.Senones)
	}

	if err := r.SetDefault("pruned-sparse"); err != nil {
		t.Fatal(err)
	}
	if v, ok := r.Resolve(""); !ok || v != b {
		t.Error("Resolve(\"\") did not follow SetDefault")
	}
	if err := r.SetDefault("nope"); err == nil {
		t.Error("SetDefault(nope) succeeded")
	}
}

func TestRegisterRejectsDuplicatesAndMismatches(t *testing.T) {
	r := New()
	if _, err := r.Register("", "", testNet(t, 1), dnn.BackendAuto); err == nil {
		t.Error("empty variant name accepted")
	}
	if _, err := r.Register("a", "", nil, dnn.BackendAuto); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := r.Register("a", "", testNet(t, 1), dnn.BackendAuto); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("a", "", testNet(t, 2), dnn.BackendAuto); err == nil {
		t.Error("duplicate variant name accepted")
	}
	other := testTopo
	other.Senones = 12
	if _, err := r.Register("b", "", other.Build(mat.NewRNG(3)), dnn.BackendAuto); err == nil {
		t.Error("variant with a different senone count accepted")
	}
}

// TestSwapPinsOldPlan is the hot-swap contract: a plan captured before
// the swap keeps producing the exact old scores, while Plan() returns
// the new weights' plan.
func TestSwapPinsOldPlan(t *testing.T) {
	r := New()
	v, err := r.Register("m", "", testNet(t, 1), dnn.BackendDense)
	if err != nil {
		t.Fatal(err)
	}
	old := v.Plan()
	in := make([]float64, old.InDim())
	for i := range in {
		in[i] = float64(i) * 0.1
	}
	wantOld := make([]float64, old.OutDim())
	old.NewExec().LogPosteriors(wantOld, in)

	newPlan, err := v.Swap(testNet(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if v.Plan() != newPlan {
		t.Error("Plan() does not return the swapped-in plan")
	}
	if v.Plan() == old {
		t.Error("swap did not replace the plan pointer")
	}

	gotOld := make([]float64, old.OutDim())
	old.NewExec().LogPosteriors(gotOld, in)
	for i := range gotOld {
		if math.Float64bits(gotOld[i]) != math.Float64bits(wantOld[i]) {
			t.Fatalf("pinned plan changed output at %d: %v != %v", i, gotOld[i], wantOld[i])
		}
	}
	gotNew := make([]float64, old.OutDim())
	newPlan.NewExec().LogPosteriors(gotNew, in)
	same := true
	for i := range gotNew {
		if math.Float64bits(gotNew[i]) != math.Float64bits(wantOld[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("new plan scores identical to old — swap served stale weights")
	}

	// Dimension-mismatched swaps are refused and keep the current plan.
	other := testTopo
	other.Senones = 12
	if _, err := v.Swap(other.Build(mat.NewRNG(3))); err == nil {
		t.Error("swap to a different senone count accepted")
	}
	if v.Plan() != newPlan {
		t.Error("failed swap replaced the plan")
	}
}

func TestReloadFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.model")
	if err := testNet(t, 1).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	r := New()
	v, err := r.Register("m", path, testNet(t, 1), dnn.BackendAuto)
	if err != nil {
		t.Fatal(err)
	}

	// Rewrite the file with different weights; Reload must pick them up.
	if err := testNet(t, 2).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before := v.Plan()
	if err := r.ReloadAll(); err != nil {
		t.Fatal(err)
	}
	if v.Plan() == before {
		t.Error("ReloadAll did not swap the plan")
	}

	// A corrupt file fails the reload and keeps the current plan.
	if err := os.WriteFile(path, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	current := v.Plan()
	if err := r.ReloadAll(); err == nil {
		t.Error("ReloadAll succeeded on a corrupt model file")
	}
	if v.Plan() != current {
		t.Error("failed reload replaced the plan")
	}

	// So does a well-formed file whose layers do not chain (the net is
	// assembled by hand to get past NewNetwork's own check): Reload
	// returns an error instead of panicking, and the old plan serves on.
	good := testNet(t, 2)
	bad := &dnn.Network{Layers: []dnn.Layer{good.Layers[0], good.Layers[len(good.Layers)-1]}}
	if err := bad.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := v.Reload(); err == nil {
		t.Error("Reload succeeded on a model whose layers do not chain")
	}
	if v.Plan() != current {
		t.Error("failed reload replaced the plan")
	}
	got := make([]float64, current.OutDim())
	current.NewExec().LogPosteriors(got, make([]float64, current.InDim()))
	for _, x := range got {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("old plan no longer scores: %v", got)
		}
	}

	// Path-less variants are skipped, not errors.
	mem, err := r.Register("mem", "", testNet(t, 3), dnn.BackendAuto)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Reload(); err == nil {
		t.Error("Reload on a path-less variant succeeded")
	}
}

func TestManifestLoadAndBuild(t *testing.T) {
	dir := t.TempDir()
	if err := testNet(t, 1).SaveFile(filepath.Join(dir, "a.model")); err != nil {
		t.Fatal(err)
	}
	if err := testNet(t, 2).SaveFile(filepath.Join(dir, "b.model")); err != nil {
		t.Fatal(err)
	}
	manifest := `{
  "default": "b-sparse",
  "variants": [
    {"name": "a-dense",  "model": "a.model", "backend": "dense"},
    {"name": "b-sparse", "model": "b.model", "backend": "sparse"},
    {"name": "b-bsr",    "model": "b.model", "backend": "bsr"}
  ]
}`
	path := filepath.Join(dir, "manifest.json")
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}

	m, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	// Relative model paths resolve against the manifest's directory.
	if got := m.Variants[0].Model; got != filepath.Join(dir, "a.model") {
		t.Errorf("relative model path resolved to %q", got)
	}
	r, err := m.Build()
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 || r.Default() != "b-sparse" {
		t.Errorf("built registry: Len=%d Default=%q", r.Len(), r.Default())
	}
	v, ok := r.Resolve("a-dense")
	if !ok || v.Backend() != dnn.BackendDense {
		t.Errorf("a-dense variant: %v, %v", v, ok)
	}
	q, ok := r.Resolve("b-bsr")
	if !ok || q.Backend() != dnn.BackendBSR {
		t.Errorf("b-bsr variant: %v, %v", q, ok)
	}
}

func TestManifestValidation(t *testing.T) {
	dir := t.TempDir()
	write := func(body string) string {
		t.Helper()
		p := filepath.Join(dir, "m.json")
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name, body, wantErr string
	}{
		{"no variants", `{"variants": []}`, "no variants"},
		{"unnamed variant", `{"variants": [{"model": "a.model"}]}`, "has no name"},
		{"duplicate", `{"variants": [{"name": "a", "model": "a.model"}, {"name": "a", "model": "b.model"}]}`, "duplicate"},
		{"missing model", `{"variants": [{"name": "a"}]}`, "no model path"},
		{"bad backend", `{"variants": [{"name": "a", "model": "a.model", "backend": "gpu"}]}`, "unknown backend"},
		{"retired int8 backend", `{"variants": [{"name": "a", "model": "a.model", "backend": "int8"}]}`, "unknown backend"},
		{"unknown default", `{"default": "x", "variants": [{"name": "a", "model": "a.model"}]}`, "not among the variants"},
		{"bad json", `{`, "parsing"},
	}
	for _, tc := range cases {
		_, err := LoadManifest(write(tc.body))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
	if _, err := LoadManifest(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing manifest file loaded")
	}
}

// TestManifestServeDefaults pins that a manifest written for servers
// that read a "serve" block of batcher settings still loads and
// builds: the block is ignored like any other unknown field, even
// with values those servers rejected.
func TestManifestServeDefaults(t *testing.T) {
	dir := t.TempDir()
	if err := testNet(t, 1).SaveFile(filepath.Join(dir, "a.model")); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "m.json")
	body := `{
  "variants": [{"name": "a", "model": "a.model"}],
  "serve": {"max_batch": -2, "batch_window_ms": 0.5}
}`
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(p)
	if err != nil {
		t.Fatalf("manifest with a serve block: %v", err)
	}
	reg, err := m.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Names(); len(got) != 1 || got[0] != "a" {
		t.Errorf("variants %v, want [a]", got)
	}
}
