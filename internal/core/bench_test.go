package core

import (
	"math/rand"
	"testing"
)

// BenchmarkDecodeSingleCollision times the receiver's single-reception
// attempt on an equal-power two-packet collision of 60-byte frames,
// the attempt the serve path makes on every collision before ZigZag:
// the forward pass stalls on both packets, and the backward plan finds
// that the pass could finish neither.
func BenchmarkDecodeSingleCollision(b *testing.B) {
	s := newScenario(b, 2, 60, []float64{13, 13}, []float64{0.003, -0.002}, 0.05)
	rng := rand.New(rand.NewSource(1002))
	benchDecode(b, s, []*Reception{s.collide(b, rng, 0.05, []int{40, 426})})
}

// BenchmarkDecodePair times the joint decode of two collisions of the
// same two 60-byte frames (§4.2).
func BenchmarkDecodePair(b *testing.B) {
	s := newScenario(b, 1, 60, []float64{13, 13}, []float64{0.003, -0.002}, 0.05)
	rng := rand.New(rand.NewSource(1001))
	benchDecode(b, s, []*Reception{
		s.collide(b, rng, 0.05, []int{40, 340}),
		s.collide(b, rng, 0.05, []int{40, 160}),
	})
}

// benchDecode times DecodeWith on one warmed Scratch.
func benchDecode(b *testing.B, s *scenario, recs []*Reception) {
	sc := &Scratch{}
	if _, err := DecodeWith(sc, s.cfg, s.metas, recs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeWith(sc, s.cfg, s.metas, recs); err != nil {
			b.Fatal(err)
		}
	}
}
