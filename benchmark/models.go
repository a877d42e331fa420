package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/asr"
	"repro/internal/dnn"
	"repro/internal/speech"
)

// modelNames are the three trained models the workloads serve: the
// dense baseline, its unstructured 90%-pruned derivative and the 8x8
// block-pruned one.
var modelNames = []string{"p0", "p90", "block90"}

// modelSet maps a model name to its file in the cache directory.
type modelSet map[string]string

// modelKey names a cache entry: the scale plus a fingerprint of the
// regenerated test set, so a change to the synthetic world (which
// would leave cached weights scoring the wrong senones) retrains.
func modelKey(scale asr.Scale) (string, error) {
	world, err := speech.NewWorld(scale.World)
	if err != nil {
		return "", err
	}
	noise := scale.TestNoiseScale
	if noise <= 0 {
		noise = 1
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, u := range world.SynthesizeSetNoisy(scale.TestUtts, scale.WordsPerUtt, 2002, noise) {
		for _, w := range u.Words {
			binary.LittleEndian.PutUint64(buf[:], uint64(w))
			h.Write(buf[:])
		}
		for _, fr := range u.Frames {
			for _, v := range fr {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return fmt.Sprintf("%s-%016x", scale.Name, h.Sum64()), nil
}

// ensureModels returns the three model files for scale under dir,
// training them (about a minute at small scale) when the cache entry
// is missing, unreadable or shaped for another world. trainSeconds is
// 0 on a cache hit; it is information, never a metric.
func ensureModels(scale asr.Scale, dir string) (set modelSet, trainSeconds float64, err error) {
	key, err := modelKey(scale)
	if err != nil {
		return nil, 0, err
	}
	set = modelSet{}
	for _, name := range modelNames {
		set[name] = filepath.Join(dir, fmt.Sprintf("%s-%s.model", key, name))
	}
	if cachedModelsUsable(scale, set) {
		return set, 0, nil
	}

	start := time.Now()
	sys, err := asr.Build(scale, []int{90})
	if err != nil {
		return nil, 0, fmt.Errorf("training: %w", err)
	}
	block, _, err := sys.BlockModel(90, 8)
	if err != nil {
		return nil, 0, fmt.Errorf("training: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	nets := map[string]*dnn.Network{"p0": sys.Models[0], "p90": sys.Models[90], "block90": block}
	for _, name := range modelNames {
		// Write beside the target and rename, so an interrupted run
		// never leaves a half-written entry that passes as a hit.
		tmp := set[name] + ".tmp"
		if err := nets[name].SaveFile(tmp); err != nil {
			return nil, 0, err
		}
		if err := os.Rename(tmp, set[name]); err != nil {
			return nil, 0, err
		}
	}
	return set, time.Since(start).Seconds(), nil
}

func cachedModelsUsable(scale asr.Scale, set modelSet) bool {
	topo := scale.Topology()
	for _, path := range set {
		net, err := dnn.LoadFile(path)
		if err != nil {
			return false
		}
		if net.OutDim() != topo.Senones || net.InDim() != topo.InputDim() {
			return false
		}
	}
	return true
}
