// Package dnnsim models the DaDianNao-style DNN accelerator of
// Section III-D: tiles of FP multiplier arrays and adder trees fed by
// an eDRAM weights buffer and a multi-banked, multi-ported I/O buffer.
//
// Dense layers stream weights at full throughput. Pruned layers fetch
// M non-consecutive inputs per cycle through the I/O buffer; when more
// than P of the M indices map to the same bank the pipeline stalls —
// the mechanism behind the paper's measured FP-throughput drops of
// 11%/18%/33% at 70/80/90% pruning. Block-pruned layers take a third
// path (analyzeBlock): the lanes execute whole dense micro-tiles whose
// inputs are consecutive words, so utilization is a function of the
// block shape instead of the nonzero pattern.
//
// Because the weight and index patterns are fixed per model, the
// per-layer cycle counts are input-independent: Analyze runs the bank
// simulation once and per-frame time is a lookup.
package dnnsim

import (
	"fmt"

	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/sparse"
)

// Config mirrors Table II of the paper.
type Config struct {
	Tiles          int
	MulsPerTile    int
	AddersPerTile  int
	WeightBufBytes int64 // total eDRAM capacity
	IOBufBytes     int
	IOBanks        int
	IOReadPorts    int // read ports per bank
	FrequencyHz    float64
	WeightBits     int
	IndexBits      int
	// RingWordsPerCycle is the inter-tile ring bandwidth: FC output
	// neurons are distributed across tiles ("the different tiles are
	// connected in a ring; output neurons are evenly distributed among
	// the tiles"), so every tile's results circulate to the others
	// between layers. Transfers overlap with compute; a layer only
	// stalls when the ring is the bottleneck.
	RingWordsPerCycle int
}

// PaperConfig returns the Table II configuration: 4 tiles, 128 32-bit
// multipliers and adders, 18 MB weights buffer, 32 KB I/O buffer with
// 64 banks x 2 read ports, clocked at 800 MHz.
func PaperConfig() Config {
	return Config{
		Tiles:             4,
		MulsPerTile:       32,
		AddersPerTile:     32,
		WeightBufBytes:    18 << 20,
		IOBufBytes:        32 << 10,
		IOBanks:           64,
		IOReadPorts:       2,
		FrequencyHz:       800e6,
		WeightBits:        32,
		IndexBits:         12,
		RingWordsPerCycle: 4,
	}
}

// Lanes reports the number of parallel MAC lanes (M in the paper).
func (c Config) Lanes() int { return c.Tiles * c.MulsPerTile }

// LayerReport is the timing/energy analysis of one FC layer.
type LayerReport struct {
	Name        string
	Sparse      bool
	Block       int   // tile edge when the layer ran the block path; 0 otherwise
	MACs        int64 // useful multiply-accumulates
	Cycles      int64
	StallCycles int64 // I/O bank-conflict stalls
	RingCycles  int64 // inter-tile result-exchange stall cycles
	WeightReads int64 // weight-buffer words
	IndexReads  int64
	IOReads     int64
	Utilization float64 // MACs / (Cycles * Lanes)
}

// Report is the whole-model analysis.
type Report struct {
	Layers         []LayerReport
	CyclesPerFrame int64
	MACsPerFrame   int64
	Utilization    float64
	ModelBits      int64   // storage footprint incl. indices
	PoweredFrac    float64 // fraction of eDRAM banks powered (rest gated)
	cfg            Config
}

// SecondsPerFrame reports the modelled forward-pass latency.
func (r *Report) SecondsPerFrame() float64 {
	return float64(r.CyclesPerFrame) / r.cfg.FrequencyHz
}

// EnergyPerFrame models one forward pass: MAC energy, weight/index
// fetch, I/O buffer traffic, plus static leakage with unused eDRAM
// banks power-gated (the paper gates them for pruned models).
func (r *Report) EnergyPerFrame() energy.Account {
	var acc energy.Account
	var weightReads, indexReads, ioReads int64
	for _, l := range r.Layers {
		weightReads += l.WeightReads
		indexReads += l.IndexReads
		ioReads += l.IOReads
	}
	acc.AddDynamic(r.MACsPerFrame, energy.MACPJ)
	acc.AddDynamic(weightReads, energy.WeightBufPJ)
	acc.AddDynamic(indexReads, energy.IndexPJ)
	acc.AddDynamic(ioReads, energy.IOBufPJ)
	staticW := (energy.DNNStaticW - energy.DNNStaticEDRAMW) + energy.DNNStaticEDRAMW*r.PoweredFrac
	acc.AddStatic(r.SecondsPerFrame(), staticW)
	return acc
}

// Analyze runs the timing model over every FC layer of the network.
// Layers with a block-pruning mask run the block lane model
// (analyzeBlock, over the layer compressed to BSR); other masked
// layers run the index-gather sparse path over the layer compressed to
// CSR; dense layers the streaming path. Pooling/normalization layers
// contribute negligibly (the paper: "the vast majority of the
// computations for MLPs come from FC layers") and are folded into the
// pipeline as one cycle per output.
func Analyze(net *dnn.Network, cfg Config) (*Report, error) {
	if cfg.Lanes() <= 0 || cfg.IOBanks <= 0 || cfg.IOReadPorts <= 0 {
		return nil, fmt.Errorf("dnnsim: invalid config %+v", cfg)
	}
	rep := &Report{cfg: cfg}
	var bits int64
	for _, layer := range net.Layers {
		fc, ok := layer.(*dnn.FC)
		if !ok {
			// pooling / renorm run on the specialized functional units
			// (sqrt, reciprocal...), several lanes wide
			rep.CyclesPerFrame += int64((layer.OutDim() + specialLanes - 1) / specialLanes)
			continue
		}
		var lr LayerReport
		if fc.Mask != nil && fc.BlockSize > 0 {
			bl := sparse.FromDenseBSR(fc.W, fc.B, fc.BlockSize)
			lr = analyzeBlock(fc.LayerName, bl, cfg)
			bits += bl.StorageBits(cfg.WeightBits, cfg.IndexBits)
		} else if fc.Mask != nil {
			sl := sparse.FromDense(fc.W, fc.B)
			lr = analyzeSparse(fc.LayerName, sl, cfg)
			bits += sl.StorageBits(cfg.WeightBits, cfg.IndexBits)
		} else {
			lr = analyzeDense(fc, cfg)
			bits += int64(fc.WeightCount()+len(fc.B)) * int64(cfg.WeightBits)
		}
		// Ring exchange: each tile must receive the other tiles' share
		// of this layer's outputs before the next layer starts. The
		// transfer overlaps with compute; only the excess stalls.
		if cfg.Tiles > 1 && cfg.RingWordsPerCycle > 0 {
			transferWords := int64(fc.OutDim()) * int64(cfg.Tiles-1) / int64(cfg.Tiles)
			transferCycles := (transferWords + int64(cfg.RingWordsPerCycle) - 1) / int64(cfg.RingWordsPerCycle)
			if transferCycles > lr.Cycles {
				lr.RingCycles = transferCycles - lr.Cycles
				lr.Cycles = transferCycles
			}
		}
		rep.Layers = append(rep.Layers, lr)
		rep.CyclesPerFrame += lr.Cycles
		rep.MACsPerFrame += lr.MACs
	}
	rep.ModelBits = bits
	capacityBits := cfg.WeightBufBytes * 8
	rep.PoweredFrac = 1
	if capacityBits > 0 && bits < capacityBits {
		rep.PoweredFrac = float64(bits) / float64(capacityBits)
		// bank granularity: gate in 1/16ths
		rep.PoweredFrac = float64(int(rep.PoweredFrac*16)+1) / 16
		if rep.PoweredFrac > 1 {
			rep.PoweredFrac = 1
		}
	}
	// Utilization is measured over the FP MAC array (the paper's "FP
	// throughput"), i.e. the cycles spent in FC layers.
	var fcCycles int64
	for _, l := range rep.Layers {
		fcCycles += l.Cycles
	}
	if fcCycles > 0 {
		rep.Utilization = float64(rep.MACsPerFrame) / float64(fcCycles*int64(cfg.Lanes()))
	}
	obsCyclesPerFrame.Set(float64(rep.CyclesPerFrame))
	obsUtilization.Set(rep.Utilization)
	perFrame := rep.EnergyPerFrame()
	obsEnergyPerFrame.Set(perFrame.TotalJ())
	return rep, nil
}

// specialLanes is the width of the specialized functional units that
// execute pooling and normalization layers.
const specialLanes = 16

// analyzeDense: weights stream sequentially; inputs are read in order
// from interleaved banks, so there are never bank conflicts and the
// engine sustains one group of Lanes MACs per cycle.
func analyzeDense(fc *dnn.FC, cfg Config) LayerReport {
	m := int64(cfg.Lanes())
	weights := int64(fc.WeightCount())
	cycles := (weights + m - 1) / m
	return LayerReport{
		Name:        fc.LayerName,
		MACs:        weights,
		Cycles:      cycles,
		WeightReads: weights,
		IOReads:     weights,
		Utilization: safeDiv(weights, cycles*m),
	}
}

// analyzeSparse simulates the index-driven input gather of a pruned
// layer. Two properties of the real engine matter:
//
//   - groups of M weights pack across neuron boundaries (the paper:
//     the engine reads "the next M weights and indices, which can be
//     from the same neuron if not finished yet or the next one"), so
//     short rows do not waste lanes;
//   - the order of a neuron's weights is free (a dot product commutes),
//     so the model loader schedules each group's indices to spread
//     bank load. We model this with a bounded lookahead window: the
//     scheduler fills a group with indices whose bank still has a free
//     port, and only stalls when the window offers no conflict-free
//     index — the residual conflicts behind the paper's 11/18/33%
//     throughput drops.
func analyzeSparse(name string, l *sparse.Layer, cfg Config) LayerReport {
	m := cfg.Lanes()
	banks := cfg.IOBanks
	ports := cfg.IOReadPorts
	window := 2 * m // scheduler lookahead in weights

	var cycles, stalls, macs int64
	cols := l.Cols
	bankLoad := make([]int, banks)

	// pending holds, per bank, the count of not-yet-fetched indices in
	// the current lookahead window.
	pending := make([]int, banks)
	head, tail := 0, 0 // window = cols[head:tail)
	remaining := len(cols)
	inWindow := 0

	for remaining > 0 {
		// refill the window
		for tail < len(cols) && inWindow < window {
			pending[int(cols[tail])%banks]++
			tail++
			inWindow++
		}
		// issue one group: up to m fetches, at most `ports` per bank
		for i := range bankLoad {
			bankLoad[i] = 0
		}
		issued := 0
		for b := 0; b < banks && issued < m; b++ {
			take := pending[b]
			if take > ports {
				take = ports
			}
			if take > m-issued {
				take = m - issued
			}
			pending[b] -= take
			issued += take
		}
		if issued == 0 {
			// window exhausted mid-layer (only possible at the very end)
			break
		}
		macs += int64(issued)
		inWindow -= issued
		remaining -= issued
		cycles++
		if issued < m && remaining+inWindow > 0 {
			stalls++ // under-filled group: a conflict-induced bubble
		}
		_ = head
	}
	return LayerReport{
		Name:        name,
		Sparse:      true,
		MACs:        macs,
		Cycles:      cycles,
		StallCycles: stalls,
		WeightReads: macs,
		IndexReads:  macs,
		IOReads:     macs,
		Utilization: safeDiv(macs, cycles*int64(m)),
	}
}

// analyzeBlock is the lane-utilization model for block-pruned layers.
// The lanes see whole tiles, not individual weights: a stored b×b tile
// is a dense micro-job whose b inputs are *consecutive* I/O-buffer
// words, so the index-driven gather that causes analyzeSparse's
// data-dependent bank conflicts degenerates to short streaming reads.
// Utilization therefore becomes a function of the block shape — how b²
// divides the lane count and how full the edge tiles are — rather than
// of the per-row nonzero pattern; that determinism is exactly the
// "predictable speedup" structured pruning buys.
//
// Lane packing: groups of floor(Lanes/b²) whole tiles issue per cycle
// (a tile is never split across groups — its adder tree reduces in
// place); when b² exceeds the lane count a tile takes ceil(b²/Lanes)
// cycles. Each tile in a group loads its b consecutive input words
// from b consecutive banks; a group stalls only when the tiles' bank
// ranges overlap beyond the ports-per-bank budget.
func analyzeBlock(name string, l *sparse.BSR, cfg Config) LayerReport {
	m := cfg.Lanes()
	banks := cfg.IOBanks
	ports := cfg.IOReadPorts
	b := l.Block
	area := b * b
	perTileCycles := int64(1)
	tilesPerGroup := m / area
	if tilesPerGroup < 1 {
		tilesPerGroup = 1
		perTileCycles = int64((area + m - 1) / m)
	}

	// Tile extents clipped to the matrix: edge tiles execute padding
	// slots too, but only the real entries count as useful MACs.
	type tile struct{ c0, useful int }
	tiles := make([]tile, 0, l.BlockCount())
	for br := 0; br < l.BlockRows(); br++ {
		rn := min(b, l.Rows-br*b)
		for k := l.RowPtr[br]; k < l.RowPtr[br+1]; k++ {
			c0 := int(l.BlockCols[k]) * b
			cn := min(b, l.ColsDim-c0)
			tiles = append(tiles, tile{c0, rn * cn})
		}
	}

	var cycles, stalls, macs int64
	bankLoad := make([]int, banks)
	for start := 0; start < len(tiles); start += tilesPerGroup {
		end := min(start+tilesPerGroup, len(tiles))
		for i := range bankLoad {
			bankLoad[i] = 0
		}
		for _, tl := range tiles[start:end] {
			macs += int64(tl.useful)
			for j := 0; j < b; j++ {
				bankLoad[(tl.c0+j)%banks]++
			}
		}
		cost := perTileCycles
		for _, load := range bankLoad {
			if need := int64((load + ports - 1) / ports); need > cost {
				cost = need
			}
		}
		cycles += cost
		stalls += cost - perTileCycles
	}

	nTiles := int64(l.BlockCount())
	return LayerReport{
		Name:        name,
		Sparse:      true,
		Block:       b,
		MACs:        macs,
		Cycles:      cycles,
		StallCycles: stalls,
		WeightReads: nTiles * int64(area), // tiles stream whole, padding included
		IndexReads:  nTiles,               // ONE index per tile — the BSR bargain
		IOReads:     nTiles * int64(b),    // b consecutive words per tile
		Utilization: safeDiv(macs, cycles*int64(m)),
	}
}

func safeDiv(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
