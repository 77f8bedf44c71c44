package dsp

import (
	"fmt"
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

// edgeAt evaluates output n with per-tap bounds checks, reading zeros
// beyond x's edges and skipping zero taps: the form FIR.Apply ran its
// edge outputs on before they moved onto zero-padded windows.
func (f FIR) edgeAt(x []complex128, n int) complex128 {
	var acc complex128
	for k, t := range f.Taps {
		if t == 0 {
			continue
		}
		i := n + f.Center - k
		if i < 0 || i >= len(x) {
			continue
		}
		acc += t * x[i]
	}
	return acc
}

// applyReference evaluates every output with edgeAt: the per-tap-checked
// form FIR.Apply must reproduce bit for bit.
func applyReference(f FIR, x []complex128) []complex128 {
	dst := make([]complex128, len(x))
	for n := range dst {
		dst[n] = f.edgeAt(x, n)
	}
	return dst
}

// apply3Reference is the straight-line interior FIR.Apply ran three-tap
// filters on before they moved onto kern.FIRCplx, with edgeAt at the
// edges.
func apply3Reference(f FIR, x []complex128) []complex128 {
	dst := make([]complex128, len(x))
	t0, t1, t2 := f.Taps[0], f.Taps[1], f.Taps[2]
	for n := range dst {
		base := n + f.Center
		if base-2 < 0 || base >= len(x) {
			dst[n] = f.edgeAt(x, n)
			continue
		}
		v0, v1, v2 := x[base], x[base-1], x[base-2]
		var re, im float64
		re += real(t0)*real(v0) - imag(t0)*imag(v0)
		im += real(t0)*imag(v0) + imag(t0)*real(v0)
		re += real(t1)*real(v1) - imag(t1)*imag(v1)
		im += real(t1)*imag(v1) + imag(t1)*real(v1)
		re += real(t2)*real(v2) - imag(t2)*imag(v2)
		im += real(t2)*imag(v2) + imag(t2)*real(v2)
		dst[n] = complex(re, im)
	}
	return dst
}

// TestFIRApplyFastPathMatchesReference sweeps tap counts 1–9, centers
// (including fully one-sided filters) and signal lengths shorter than
// the filter, checking the interior kernel plus the padded edges
// against the reference evaluation bit for bit.
func TestFIRApplyFastPathMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 400; trial++ {
		l := 1 + r.Intn(9)
		f := FIR{Taps: randVec(r, l), Center: r.Intn(l)}
		if r.Intn(4) == 0 {
			f.Taps[r.Intn(l)] = 0 // exercise the zero-tap skip parity
		}
		x := randVec(r, 1+r.Intn(40))
		requireSameBits(t, f.Apply(nil, x), applyReference(f, x),
			fmt.Sprintf("taps=%d center=%d len=%d", l, f.Center, len(x)))
	}
}

// TestFIRApplyThreeTapMatchesUnrolled pins three-tap filters — the
// TypicalISI shape every rendered link goes through — against the
// unrolled interior they ran on, bit for bit, for each center and for
// signals shorter and longer than the filter.
func TestFIRApplyThreeTapMatchesUnrolled(t *testing.T) {
	r := rand.New(rand.NewSource(57))
	for trial := 0; trial < 300; trial++ {
		f := FIR{Taps: randVec(r, 3), Center: trial % 3}
		if trial%5 == 0 {
			// channel.TypicalISI's shape at a random strength.
			g := 1 + r.Float64()
			f = NewFIR([]complex128{complex(0.12*g, 0.04*g), 1, complex(0.22*g, -0.06*g)})
		}
		x := randVec(r, r.Intn(300))
		requireSameBits(t, f.Apply(nil, x), apply3Reference(f, x),
			fmt.Sprintf("taps=%v center=%d len=%d", f.Taps, f.Center, len(x)))
	}
}

// TestFIRApplyZeroTapReadsNaN pins the documented NaN behaviour: a zero
// tap multiplies its sample, so a NaN input under a zero tap makes the
// output NaN at an edge exactly as in the interior.
func TestFIRApplyZeroTapReadsNaN(t *testing.T) {
	f := FIR{Taps: []complex128{0, 1, 0}, Center: 1}
	x := randVec(rand.New(rand.NewSource(59)), 12)
	x[1], x[10] = cmplx.NaN(), cmplx.NaN()
	y := f.Apply(nil, x)
	for _, n := range []int{0, 2, 9, 11} {
		if !cmplx.IsNaN(y[n]) {
			t.Fatalf("y[%d] = %v reads a NaN through a zero tap, want NaN", n, y[n])
		}
	}
}

// TestFIRApplyAllocFree pins the edge windows to the stack: applying a
// filter up to 16 taps long allocates nothing beyond dst.
func TestFIRApplyAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	x := randVec(r, 200)
	dst := make([]complex128, len(x))
	for _, l := range []int{3, 7, 16} {
		f := FIR{Taps: randVec(r, l), Center: l / 2}
		if n := testing.AllocsPerRun(20, func() { f.Apply(dst, x) }); n != 0 {
			t.Fatalf("%d taps: %v allocations per Apply, want 0", l, n)
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
