package registry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/dnn"
)

// VariantSpec is one manifest entry: the name clients put in the
// handshake, the model file asrtrain wrote, and the kernel policy the
// variant's plans compile under.
type VariantSpec struct {
	Name    string `json:"name"`
	Model   string `json:"model"`
	Backend string `json:"backend,omitempty"` // auto (default), dense, sparse, or bsr
}

// Manifest is the multi-model configuration cmd/asrserve loads with
// -manifest. The normative description lives in docs/SERVING.md:
//
//	{
//	  "default": "tiny-dense",
//	  "variants": [
//	    {"name": "tiny-dense",  "model": "models/tiny-prune90.model", "backend": "dense"},
//	    {"name": "tiny-sparse", "model": "models/tiny-prune90.model", "backend": "sparse"},
//	    {"name": "tiny-bsr",    "model": "models/tiny-block90.model", "backend": "bsr"}
//	  ]
//	}
//
// Relative model paths are resolved against the manifest file's own
// directory, so a manifest can ship next to its models. Unknown fields
// are ignored, so a manifest that still carries a retired field (such
// as the old "serve" block) loads unchanged.
type Manifest struct {
	Default  string        `json:"default,omitempty"`
	Variants []VariantSpec `json:"variants"`
}

// LoadManifest parses the manifest at path and resolves relative
// model paths against the manifest's directory.
func LoadManifest(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("registry: reading manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("registry: parsing manifest %s: %w", path, err)
	}
	base := filepath.Dir(path)
	for i := range m.Variants {
		if mp := m.Variants[i].Model; mp != "" && !filepath.IsAbs(mp) {
			m.Variants[i].Model = filepath.Join(base, mp)
		}
	}
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("registry: manifest %s: %w", path, err)
	}
	return &m, nil
}

func (m *Manifest) validate() error {
	if len(m.Variants) == 0 {
		return fmt.Errorf("no variants")
	}
	seen := map[string]bool{}
	hasDefault := m.Default == ""
	for i, v := range m.Variants {
		if v.Name == "" {
			return fmt.Errorf("variant %d has no name", i)
		}
		if seen[v.Name] {
			return fmt.Errorf("duplicate variant %q", v.Name)
		}
		seen[v.Name] = true
		if v.Model == "" {
			return fmt.Errorf("variant %q has no model path", v.Name)
		}
		if _, err := dnn.ParseBackend(v.Backend); err != nil {
			return fmt.Errorf("variant %q: %w", v.Name, err)
		}
		if v.Name == m.Default {
			hasDefault = true
		}
	}
	if !hasDefault {
		return fmt.Errorf("default %q is not among the variants", m.Default)
	}
	return nil
}

// Build loads every variant's model file and assembles the registry.
// The first variant is the default unless the manifest names one.
func (m *Manifest) Build() (*Registry, error) {
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("registry: manifest: %w", err)
	}
	r := New()
	for _, spec := range m.Variants {
		backend, err := dnn.ParseBackend(spec.Backend)
		if err != nil {
			return nil, err
		}
		net, err := dnn.LoadFile(spec.Model)
		if err != nil {
			return nil, fmt.Errorf("registry: loading variant %q: %w", spec.Name, err)
		}
		if _, err := r.Register(spec.Name, spec.Model, net, backend); err != nil {
			return nil, err
		}
	}
	if m.Default != "" {
		if err := r.SetDefault(m.Default); err != nil {
			return nil, err
		}
	}
	return r, nil
}
