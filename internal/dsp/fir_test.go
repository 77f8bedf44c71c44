package dsp

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestIdentityFilter(t *testing.T) {
	f := Identity()
	if !f.IsIdentity() {
		t.Fatal("Identity() not recognized as identity")
	}
	x := randVec(rand.New(rand.NewSource(1)), 32)
	y := f.Apply(nil, x)
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("identity filter changed sample %d", i)
		}
	}
}

func TestFIRApplyKnownValues(t *testing.T) {
	// y[n] = 0.5·x[n+1] + x[n] + 0.25·x[n−1]
	f := NewFIR([]complex128{0.5, 1, 0.25})
	x := []complex128{1, 0, 0, 2}
	y := f.Apply(nil, x)
	want := []complex128{1, 0.25 + 0, 0 + 0 + 1, 2}
	for i := range want {
		if !approxC(y[i], want[i], 1e-12) {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

// applyReference is the straightforward per-tap-checked evaluation the
// interior fast path of FIR.Apply must reproduce bit for bit.
func applyReference(f FIR, x []complex128) []complex128 {
	dst := make([]complex128, len(x))
	for n := range dst {
		var acc complex128
		for k, tap := range f.Taps {
			if tap == 0 {
				continue
			}
			i := n + f.Center - k
			if i < 0 || i >= len(x) {
				continue
			}
			acc += tap * x[i]
		}
		dst[n] = acc
	}
	return dst
}

// TestFIRApplyFastPathMatchesReference sweeps tap counts, centers
// (including fully one-sided filters) and signal lengths shorter than
// the filter, checking the interior fast path plus edge handling
// against the reference evaluation.
func TestFIRApplyFastPathMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 400; trial++ {
		l := 1 + r.Intn(9)
		f := FIR{Taps: randVec(r, l), Center: r.Intn(l)}
		if r.Intn(4) == 0 {
			f.Taps[r.Intn(l)] = 0 // exercise the zero-tap skip parity
		}
		x := randVec(r, 1+r.Intn(40))
		got := f.Apply(nil, x)
		want := applyReference(f, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("taps=%d center=%d len=%d: y[%d] = %v, want %v",
					l, f.Center, len(x), i, got[i], want[i])
			}
		}
	}
}

func TestNewFIRRejectsEvenTaps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFIR with even tap count should panic")
		}
	}()
	NewFIR([]complex128{1, 2})
}

func TestConvolveMatchesSequentialApply(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	f := NewFIR([]complex128{0.2 + 0.1i, 1, 0.3})
	g := NewFIR([]complex128{-0.1, 1, 0.15i})
	x := randVec(r, 64)
	seq := g.Apply(nil, f.Apply(nil, x))
	comb := f.Convolve(g).Apply(nil, x)
	// Edges differ because sequential application clips intermediate
	// results at the buffer boundary; compare the interior.
	for i := 4; i < 60; i++ {
		if !approxC(seq[i], comb[i], 1e-9) {
			t.Fatalf("convolve mismatch at %d: %v vs %v", i, seq[i], comb[i])
		}
	}
}

func TestEstimateFIRRecoversChannel(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	truth := NewFIR([]complex128{0.2 - 0.1i, 0.9 + 0.3i, 0.15})
	x := randVec(r, 300)
	y := truth.Apply(nil, x)
	var s LSQ
	est, err := s.EstimateFIR(x, y, 5, 295, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth.Taps {
		if cmplx.Abs(est.Taps[i]-truth.Taps[i]) > 1e-6 {
			t.Fatalf("tap %d = %v, want %v", i, est.Taps[i], truth.Taps[i])
		}
	}
}

func TestEstimateFIRTooFewSamples(t *testing.T) {
	x := make([]complex128, 4)
	var s LSQ
	if _, err := s.EstimateFIR(x, x, 0, 2, 3); err == nil {
		t.Fatal("expected error for underdetermined fit")
	}
}
