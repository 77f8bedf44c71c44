package dsp

import (
	"fmt"

	"zigzag/internal/dsp/kern"
)

// FIR is a finite impulse response filter on complex samples. Taps[Center]
// multiplies the current sample; taps before it look ahead (future
// samples) and taps after it look back, so a filter with Center > 0 can
// model pre-cursor and post-cursor inter-symbol interference:
//
//	y[n] = Σ_k Taps[k] · x[n + Center - k]
//
// This is the two-sided form the paper uses for the decoder's ISI model
// (§4.2.4d: x[i] = Σ_l h_l · x_isi[i+l], l ∈ [-L, L]).
type FIR struct {
	Taps   []complex128
	Center int
}

// Identity returns the pass-through filter.
func Identity() FIR { return FIR{Taps: []complex128{1}, Center: 0} }

// NewFIR builds a filter from two-sided taps indexed -L..+L, given as a
// slice of length 2L+1 with the zero-delay tap in the middle.
func NewFIR(twoSided []complex128) FIR {
	if len(twoSided)%2 == 0 {
		panic("dsp: NewFIR requires an odd number of taps")
	}
	return FIR{Taps: append([]complex128(nil), twoSided...), Center: len(twoSided) / 2}
}

// IsIdentity reports whether the filter passes signals through unchanged.
func (f FIR) IsIdentity() bool {
	for i, t := range f.Taps {
		if i == f.Center {
			if t != 1 {
				return false
			}
			continue
		}
		if t != 0 {
			return false
		}
	}
	return len(f.Taps) > 0
}

// Apply filters x into dst (same length, edges read zeros). dst must not
// alias x; if dst is nil a new slice is allocated. Outputs whose full tap
// window lies inside x take an interior fast path with no per-tap bounds
// or zero checks; the edge regions keep the checked evaluation.
func (f FIR) Apply(dst, x []complex128) []complex128 {
	dst = ensure(dst, len(x))
	if len(f.Taps) == 0 {
		copy(dst, x)
		return dst
	}
	// Output n reads x[n+Center−(L−1) : n+Center+1); the window is fully
	// supported for n ∈ [L−1−Center, len(x)−1−Center].
	l := len(f.Taps)
	e1 := l - 1 - f.Center
	if e1 < 0 {
		e1 = 0
	}
	if e1 > len(dst) {
		e1 = len(dst)
	}
	i2 := len(x) - f.Center
	if i2 < e1 {
		i2 = e1
	}
	if i2 > len(dst) {
		i2 = len(dst)
	}
	for n := 0; n < e1; n++ {
		dst[n] = f.edgeAt(x, n)
	}
	if l == 3 {
		// Three taps — the TypicalISI shape that dominates rendering —
		// take a straight-line interior whose accumulation runs in the
		// generic loop's exact order, so both paths are bit-identical.
		t0, t1, t2 := f.Taps[0], f.Taps[1], f.Taps[2]
		for n := e1; n < i2; n++ {
			base := n + f.Center
			v0 := x[base]
			v1 := x[base-1]
			v2 := x[base-2]
			var re, im float64
			re += real(t0)*real(v0) - imag(t0)*imag(v0)
			im += real(t0)*imag(v0) + imag(t0)*real(v0)
			re += real(t1)*real(v1) - imag(t1)*imag(v1)
			im += real(t1)*imag(v1) + imag(t1)*real(v1)
			re += real(t2)*real(v2) - imag(t2)*imag(v2)
			im += real(t2)*imag(v2) + imag(t2)*real(v2)
			dst[n] = complex(re, im)
		}
	} else if i2 > e1 && kern.FIRCplx(dst[e1:i2], x[e1+f.Center-l+1:], f.Taps) {
		// Short complex-tap interiors (the fitted ISI image filter) run
		// on the packed kernel, bit-identical to the generic loop.
	} else {
		for n := e1; n < i2; n++ {
			base := n + f.Center
			var re, im float64
			for k, t := range f.Taps {
				v := x[base-k]
				re += real(t)*real(v) - imag(t)*imag(v)
				im += real(t)*imag(v) + imag(t)*real(v)
			}
			dst[n] = complex(re, im)
		}
	}
	for n := i2; n < len(dst); n++ {
		dst[n] = f.edgeAt(x, n)
	}
	return dst
}

// edgeAt evaluates output n with per-tap bounds checks, reading zeros
// beyond x's edges.
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

// String renders the taps for diagnostics.
func (f FIR) String() string {
	return fmt.Sprintf("FIR{center=%d taps=%v}", f.Center, f.Taps)
}

// Convolve returns the filter equivalent to applying f then g.
func (f FIR) Convolve(g FIR) FIR {
	n := len(f.Taps) + len(g.Taps) - 1
	taps := make([]complex128, n)
	for i, a := range f.Taps {
		for j, b := range g.Taps {
			taps[i+j] += a * b
		}
	}
	return FIR{Taps: taps, Center: f.Center + g.Center}
}
