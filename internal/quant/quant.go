// Package quant implements the remaining two stages of the Deep
// Compression pipeline (Han et al., the paper's reference [2]) on top
// of internal/pruning: weight-sharing quantization via 1-D k-means
// codebooks, and a Huffman-coded storage estimate. The paper's own
// accelerator stores pruned FP32 weights; this package reproduces the
// follow-on compression its related-work section builds on, and lets
// the repository answer "what if the pruned model were also
// quantized?" — including the confidence impact, which is the
// paper's central metric.
package quant

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dnn"
)

// LayerReport describes the quantization of one FC layer.
type LayerReport struct {
	Name        string
	Bits        int
	Codebook    []float64
	ActiveCount int
	MSE         float64 // mean squared quantization error over active weights
	HuffmanBits int64   // entropy-coded index storage
	FixedBits   int64   // plain fixed-width index storage
}

// Report summarizes a whole-network quantization.
type Report struct {
	Bits   int
	Layers []LayerReport
	// Storage totals for the quantized model: codebooks (FP32 each),
	// Huffman-coded weight indices, biases.
	TotalHuffmanBits int64
	TotalFixedBits   int64
}

// Quantize clones the network and replaces every trainable FC layer's
// active weights with the nearest centroid of a 2^bits-entry codebook
// fitted by 1-D k-means (Lloyd's algorithm). Pruned weights stay zero;
// frozen layers (FC0/LDA) are left untouched, mirroring how pruning
// treats them.
func Quantize(net *dnn.Network, bits int) (*dnn.Network, Report, error) {
	if bits < 1 || bits > 16 {
		return nil, Report{}, fmt.Errorf("quant: bits %d out of [1,16]", bits)
	}
	out := net.Clone()
	rep := Report{Bits: bits}
	k := 1 << bits
	for _, fc := range out.FCs() {
		if !fc.Trainable {
			continue
		}
		var active []float64
		for i, w := range fc.W.Data {
			if w != 0 || (fc.Mask != nil && fc.Mask[i]) {
				active = append(active, w)
			}
		}
		if len(active) == 0 {
			continue
		}
		codebook := kmeans1D(active, k)
		var mse float64
		counts := make([]int64, len(codebook))
		for i, w := range fc.W.Data {
			if w == 0 && (fc.Mask == nil || !fc.Mask[i]) {
				continue
			}
			ci := nearest(codebook, w)
			counts[ci]++
			d := fc.W.Data[i] - codebook[ci]
			mse += d * d
			fc.W.Data[i] = codebook[ci]
		}
		mse /= float64(len(active))
		huff := HuffmanBits(counts)
		fixed := int64(len(active)) * int64(bits)
		rep.Layers = append(rep.Layers, LayerReport{
			Name: fc.LayerName, Bits: bits, Codebook: codebook,
			ActiveCount: len(active), MSE: mse,
			HuffmanBits: huff, FixedBits: fixed,
		})
		rep.TotalHuffmanBits += huff + int64(len(codebook))*32
		rep.TotalFixedBits += fixed + int64(len(codebook))*32
	}
	return out, rep, nil
}

// kmeans1D fits k centroids to the values with Lloyd's algorithm,
// initialized by linear spread over the value range (the Deep
// Compression paper's recommended initialization for preserving large
// weights).
func kmeans1D(values []float64, k int) []float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	lo, hi := sorted[0], sorted[len(sorted)-1]
	if k >= len(sorted) {
		// fewer distinct values than centroids: use the values directly
		uniq := sorted[:0]
		var prev float64
		for i, v := range sorted {
			if i == 0 || v != prev {
				uniq = append(uniq, v)
				prev = v
			}
		}
		return append([]float64(nil), uniq...)
	}
	centroids := make([]float64, k)
	for i := range centroids {
		frac := float64(i) / float64(k-1)
		centroids[i] = lo + frac*(hi-lo)
	}
	sums := make([]float64, k)
	counts := make([]int, k)
	for iter := 0; iter < 30; iter++ {
		for i := range sums {
			sums[i], counts[i] = 0, 0
		}
		// sorted data + sorted centroids: walk boundaries linearly
		ci := 0
		for _, v := range sorted {
			for ci+1 < k && math.Abs(centroids[ci+1]-v) <= math.Abs(centroids[ci]-v) {
				ci++
			}
			// v may belong to an earlier centroid than the walker when
			// centroids collapse; nearest() is authoritative but slow —
			// the walk is valid because both lists are sorted.
			sums[ci] += v
			counts[ci]++
		}
		moved := false
		for i := range centroids {
			if counts[i] == 0 {
				continue
			}
			next := sums[i] / float64(counts[i])
			if next != centroids[i] {
				centroids[i] = next
				moved = true
			}
		}
		sort.Float64s(centroids)
		if !moved {
			break
		}
		ci = 0
	}
	return centroids
}

// nearest returns the index of the closest codebook entry (codebook is
// sorted ascending).
func nearest(codebook []float64, v float64) int {
	i := sort.SearchFloat64s(codebook, v)
	if i == 0 {
		return 0
	}
	if i == len(codebook) {
		return len(codebook) - 1
	}
	if v-codebook[i-1] <= codebook[i]-v {
		return i - 1
	}
	return i
}
