package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/asr"
	"repro/internal/mat"
	"repro/internal/speech"
)

// profileNames are the four traffic profiles of docs/BENCHMARKING.md,
// in the order a workload's Mix weights them.
var profileNames = [4]string{"baseline", "noisy", "wide-vocab", "long-utt"}

// utterance is one corpus entry, already spliced: Frames are the
// feature vectors the wire protocol carries.
type utterance struct {
	Profile string
	Words   []int
	Frames  [][]float64
}

type corpus struct {
	Utts   []utterance
	Frames int    // total frames over all utterances
	Hash   uint64 // FNV-1a over every profile, word and frame bit, in order
}

// generateCorpus draws n utterances from the four profiles. The
// profile counts are exactly n·weight/Σweight, so every seed carries
// the same mix and only the order and the content follow the seed —
// a number measured on one seed is comparable with the next.
func generateCorpus(scale asr.Scale, mix [4]int, n int, seed int64) (*corpus, error) {
	total := 0
	for _, w := range mix {
		total += w
	}
	if total == 0 || n%total != 0 {
		return nil, fmt.Errorf("corpus: %d utterances do not split by mix %v", n, mix)
	}
	noise := scale.TestNoiseScale
	if noise <= 0 {
		noise = 1
	}
	type profile struct {
		world *speech.World
		noise float64
		words int
	}
	var profiles [4]profile
	for p := range profiles {
		cfg := scale.World
		pr := profile{noise: noise, words: scale.WordsPerUtt}
		switch profileNames[p] {
		case "noisy":
			pr.noise = 1.3 * noise
		case "wide-vocab":
			cfg.Vocab *= 2
		case "long-utt":
			pr.words *= 2
		}
		world, err := speech.NewWorld(cfg)
		if err != nil {
			return nil, fmt.Errorf("corpus: profile %s: %w", profileNames[p], err)
		}
		pr.world = world
		profiles[p] = pr
	}

	assign := make([]int, 0, n)
	for p, w := range mix {
		for k := 0; k < n*w/total; k++ {
			assign = append(assign, p)
		}
	}
	rng := mat.NewRNG(seed)
	rng.Shuffle(n, func(i, j int) { assign[i], assign[j] = assign[j], assign[i] })

	c := &corpus{Utts: make([]utterance, n)}
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i, p := range assign {
		pr := profiles[p]
		u := pr.world.SynthesizeNoisy(pr.words, rng.Fork(), pr.noise)
		frames := speech.SpliceAll(u.Frames, scale.Context)
		c.Utts[i] = utterance{Profile: profileNames[p], Words: u.Words, Frames: frames}
		c.Frames += len(frames)

		h.Write([]byte(profileNames[p]))
		word(uint64(len(u.Words)))
		for _, w := range u.Words {
			word(uint64(w))
		}
		word(uint64(len(frames)))
		for _, fr := range frames {
			for _, v := range fr {
				word(math.Float64bits(v))
			}
		}
	}
	c.Hash = h.Sum64()
	return c, nil
}
