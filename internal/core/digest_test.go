package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// decodeDigest folds a Result into FNV-1a: the bits of every residual
// sample, and per packet its best, forward and backward bits, source
// and error text. Iterations are left out.
func decodeDigest(res *Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, r := range res.Residuals {
		put(uint64(len(r)))
		for _, v := range r {
			put(math.Float64bits(real(v)))
			put(math.Float64bits(imag(v)))
		}
	}
	for _, pr := range res.Packets {
		for _, bits := range [][]byte{pr.Bits, pr.BitsForward, pr.BitsBackward} {
			put(uint64(len(bits)))
			h.Write(bits)
		}
		fmt.Fprintf(h, "%s|%v|%v", pr.Source, pr.Complete, pr.Err)
	}
	return h.Sum64()
}

// TestDecodeDigestGolden pins DecodeWith bit for bit, residuals
// included. The constants are also what a decoder that runs every
// backward pass needsBackward asks for, and builds every refined image
// afresh, produces: the plan and the image reuse are exact. The cases
// cover a k=2 pair, a single-reception collision whose backward pass
// the plan skips, one whose pass forces chunks, and k=3 decodes in
// which a packet's filter changes after one of its spans was subtracted
// and before that span is refined whole: reusing the stored image there
// would move their digests.
func TestDecodeDigestGolden(t *testing.T) {
	const noise = 0.05
	for _, c := range []struct {
		seed    int64
		snrs    []float64
		offsets [][]int
		digest  uint64
	}{
		{1, []float64{13, 13}, [][]int{{40, 340}, {40, 160}}, 15127395435634566069},
		{2, []float64{13, 13}, [][]int{{40, 426}}, 451226401398416819},
		{1, []float64{20, 12}, [][]int{{40, 721}}, 15901342105758645159},
		{27, []float64{10, 19, 13}, [][]int{{1154, 475, 929}, {1180, 443, 671}}, 5813148008980321116},
		{205, []float64{19, 9, 8}, [][]int{{615, 1280, 115}, {1315, 845, 1306}, {109, 94, 1059}}, 13561662473135100429},
		{229, []float64{12, 9, 19}, [][]int{{780, 1311, 737}, {266, 423, 237}, {755, 468, 435}}, 9680910285428797691},
		{383, []float64{8, 19, 8}, [][]int{{1531, 327, 584}, {207, 1216, 491}}, 11393238211730356340},
	} {
		freqs := []float64{0.003, -0.002, 0.001}[:len(c.snrs)]
		s := newScenario(t, c.seed, 60, c.snrs, freqs, noise)
		rng := rand.New(rand.NewSource(c.seed + 1000))
		var recs []*Reception
		for _, off := range c.offsets {
			recs = append(recs, s.collide(t, rng, noise, off))
		}
		res, err := DecodeWith(nil, s.cfg, s.metas, recs)
		if err != nil {
			t.Fatal(err)
		}
		if got := decodeDigest(res); got != c.digest {
			t.Errorf("seed %d, SNR %v, %d receptions: digest %d, want %d", c.seed, c.snrs, len(recs), got, c.digest)
		}
	}
}
