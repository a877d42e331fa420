package dnn

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/mat"
	"repro/internal/sparse"
)

// serializable mirror types: gob cannot encode interfaces without
// registration gymnastics, so the on-disk format is explicit.

type savedLayer struct {
	Kind      string // "fc", "pnorm", "renorm"
	Name      string
	In, Out   int
	Group     int
	Weights   []float64
	Biases    []float64
	Mask      []bool
	Trainable bool
	// Block is the FC block-pruning edge (0 = unstructured). gob treats
	// a missing field as zero, so models written before block pruning
	// load as unstructured and no format bump is needed.
	Block int
}

type savedNetwork struct {
	Format int
	Layers []savedLayer
}

const formatVersion = 1

// Save writes the network to w in a self-contained binary format.
func (n *Network) Save(w io.Writer) error {
	sn := savedNetwork{Format: formatVersion}
	for _, l := range n.Layers {
		switch v := l.(type) {
		case *FC:
			sn.Layers = append(sn.Layers, savedLayer{
				Kind: "fc", Name: v.LayerName, In: v.InDim(), Out: v.OutDim(),
				Weights: v.W.Data, Biases: v.B, Mask: v.Mask, Trainable: v.Trainable,
				Block: v.BlockSize,
			})
		case *PNorm:
			sn.Layers = append(sn.Layers, savedLayer{
				Kind: "pnorm", Name: v.LayerName, In: v.In, Out: v.Out, Group: v.Group,
			})
		case *Renorm:
			sn.Layers = append(sn.Layers, savedLayer{
				Kind: "renorm", Name: v.LayerName, In: v.Dim, Out: v.Dim,
			})
		default:
			return fmt.Errorf("dnn: cannot serialize layer type %T", l)
		}
	}
	return gob.NewEncoder(w).Encode(sn)
}

// Load reads a network previously written by Save.
func Load(r io.Reader) (*Network, error) {
	var sn savedNetwork
	if err := gob.NewDecoder(r).Decode(&sn); err != nil {
		return nil, fmt.Errorf("dnn: decode: %w", err)
	}
	if sn.Format != formatVersion {
		return nil, fmt.Errorf("dnn: unsupported model format %d", sn.Format)
	}
	var layers []Layer
	for _, sl := range sn.Layers {
		if err := sl.check(); err != nil {
			return nil, fmt.Errorf("dnn: layer %q: %w", sl.Name, err)
		}
		switch sl.Kind {
		case "fc":
			fc := &FC{LayerName: sl.Name, Trainable: sl.Trainable, B: sl.Biases, Mask: sl.Mask, BlockSize: sl.Block}
			fc.W = &mat.Matrix{Rows: sl.Out, Cols: sl.In, Data: sl.Weights}
			layers = append(layers, fc)
		case "pnorm":
			layers = append(layers, NewPNorm(sl.Name, sl.In, sl.Group))
		case "renorm":
			layers = append(layers, NewRenorm(sl.Name, sl.In))
		}
	}
	if len(layers) == 0 {
		return nil, fmt.Errorf("dnn: empty model")
	}
	if err := checkChain(layers); err != nil {
		return nil, err
	}
	return NewNetwork(layers...), nil
}

// check reports why sl cannot become a layer, or nil. A model file is
// untrusted input — a SIGHUP reload hands one to a live server — so
// Load refuses the shapes the layer constructors and Compile's BSR
// view would panic on instead of building them.
func (sl savedLayer) check() error {
	switch sl.Kind {
	case "fc":
		// Divide rather than multiply, so huge In/Out cannot overflow
		// into a match.
		if sl.In <= 0 || sl.Out <= 0 || len(sl.Biases) != sl.Out ||
			len(sl.Weights)%sl.Out != 0 || len(sl.Weights)/sl.Out != sl.In {
			return fmt.Errorf("inconsistent shapes")
		}
		if len(sl.Mask) != 0 && len(sl.Mask) != len(sl.Weights) {
			return fmt.Errorf("mask length %d, want 0 or %d", len(sl.Mask), len(sl.Weights))
		}
		if sl.Block < 0 || sl.Block > sparse.MaxBlock {
			return fmt.Errorf("block %d out of range [0,%d]", sl.Block, sparse.MaxBlock)
		}
		return nil
	case "pnorm":
		return checkPNorm(sl.In, sl.Group)
	case "renorm":
		if sl.In <= 0 {
			return fmt.Errorf("renorm dimension %d", sl.In)
		}
		return nil
	}
	return fmt.Errorf("unknown layer kind %q", sl.Kind)
}

// SaveFile writes the network to path.
func (n *Network) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := n.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a network from path.
func LoadFile(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	net, err := Load(f)
	if err != nil {
		return nil, err
	}
	PublishWeightStats(net)
	return net, nil
}
