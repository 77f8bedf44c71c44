package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestDecodeWithReuseBitIdentical pins the decode-session contract: a
// sequence of joint decodes run on one reused Scratch — pooled
// Modelers/SymbolDecoders, recycled packet/reception arenas, reused
// residual buffers and all — produces results identical to running each
// decode on a fresh state, across differing scenarios so stale scratch
// from one trial would poison the next if any reset were incomplete.
func TestDecodeWithReuseBitIdentical(t *testing.T) {
	sc := &Scratch{}
	type trial struct {
		seed    int64
		payload int
		snrs    []float64
		freqs   []float64
		offs1   []int
		offs2   []int
	}
	trials := []trial{
		{21, 220, []float64{16, 16}, []float64{0.002, -0.003}, []int{40, 640}, []int{40, 290}},
		{22, 140, []float64{18, 12}, []float64{-0.001, 0.004}, []int{40, 480}, []int{40, 220}},
		{23, 300, []float64{14, 17}, []float64{0.003, -0.002}, []int{40, 700}, []int{40, 380}},
		{21, 220, []float64{16, 16}, []float64{0.002, -0.003}, []int{40, 640}, []int{40, 290}},
	}
	for ti, tr := range trials {
		s := newScenario(t, tr.seed, tr.payload, tr.snrs, tr.freqs, 0.02)
		rng := rand.New(rand.NewSource(tr.seed + 100))
		rec1 := s.collide(t, rng, 0.02, tr.offs1)
		rec2 := s.collide(t, rng, 0.02, tr.offs2)
		want, err1 := Decode(s.cfg, s.metas, []*Reception{rec1, rec2})
		got, err2 := DecodeWith(sc, s.cfg, s.metas, []*Reception{rec1, rec2})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", ti, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if got.Iterations != want.Iterations {
			t.Fatalf("trial %d: iterations %d != %d", ti, got.Iterations, want.Iterations)
		}
		if len(got.Packets) != len(want.Packets) {
			t.Fatalf("trial %d: packet count %d != %d", ti, len(got.Packets), len(want.Packets))
		}
		for i := range want.Packets {
			w, g := want.Packets[i], got.Packets[i]
			if !reflect.DeepEqual(w.Bits, g.Bits) ||
				!reflect.DeepEqual(w.BitsForward, g.BitsForward) ||
				!reflect.DeepEqual(w.BitsBackward, g.BitsBackward) ||
				w.Source != g.Source || w.Complete != g.Complete || w.OK() != g.OK() {
				t.Fatalf("trial %d packet %d diverged from fresh-state decode", ti, i)
			}
		}
		for ri := range want.Residuals {
			if !reflect.DeepEqual(want.Residuals[ri], got.Residuals[ri]) {
				t.Fatalf("trial %d: residual %d diverged", ti, ri)
			}
		}
	}
}

// TestDecodeWithSteadyStateAllocs pins that a repeated identical decode
// on one Scratch does not grow without bound: the second and later
// repetitions reuse the arenas (a small number of allocations remains —
// the caller-owned Result and frame parses — but the big per-decode
// state must be recycled, the span image arena included).
func TestDecodeWithSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts; the ratio pin is meaningless here")
	}
	s := newScenario(t, 29, 200, []float64{16, 16}, []float64{0.002, -0.003}, 0.02)
	rng := rand.New(rand.NewSource(131))
	rec1 := s.collide(t, rng, 0.02, []int{40, 640})
	rec2 := s.collide(t, rng, 0.02, []int{40, 290})
	recs := []*Reception{rec1, rec2}

	fresh := testing.AllocsPerRun(10, func() {
		if _, err := Decode(s.cfg, s.metas, recs); err != nil {
			t.Fatal(err)
		}
	})
	sc := &Scratch{}
	if _, err := DecodeWith(sc, s.cfg, s.metas, recs); err != nil {
		t.Fatal(err)
	}
	arena := cap(sc.dec.imgs)
	pooled := testing.AllocsPerRun(10, func() {
		if _, err := DecodeWith(sc, s.cfg, s.metas, recs); err != nil {
			t.Fatal(err)
		}
	})
	if pooled > fresh/2 {
		t.Errorf("pooled decode allocates %.0f/run vs %.0f fresh — session reuse is not engaging", pooled, fresh)
	}
	if arena == 0 || cap(sc.dec.imgs) != arena {
		t.Errorf("span image arena capacity %d after warm-up, %d after repeats; want one fixed, non-zero backing", arena, cap(sc.dec.imgs))
	}
}
