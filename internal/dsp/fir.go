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
// alias x; if dst is nil a new slice is allocated. Every output runs one
// kernel: kern.FIRCplx where it covers the tap count, the generic loop
// (bit-identical) otherwise. Interior outputs read x itself; the outputs
// at either end read a copy of their windows with the samples beyond x
// zeroed, which is exact for finite taps: an accumulator starts at +0
// and can never become −0, so a t·0 = ±0 term changes no bit. Zero taps
// are not skipped, so an edge output reads a NaN or Inf input through a
// zero tap as NaN, as interior outputs always have.
func (f FIR) Apply(dst, x []complex128) []complex128 {
	dst = ensure(dst, len(x))
	l := len(f.Taps)
	if l == 0 {
		copy(dst, x)
		return dst
	}
	// Output n reads x[n+Center−(L−1) : n+Center+1); the window is fully
	// supported for n ∈ [L−1−Center, len(x)−1−Center].
	e1 := min(max(l-1-f.Center, 0), len(dst))
	i2 := min(max(len(x)-f.Center, e1), len(dst))
	// Each edge takes whole blocks of four outputs, borrowing them from
	// the interior, so only the interior's last partial block runs the
	// packed kernel's scalar tail.
	e1 = min((e1+3)&^3, i2)
	i2 = max(i2-(i2-len(dst))&3, e1)
	f.edge(dst[:e1], x, f.Center-l+1)
	if i2 > e1 {
		f.run(dst[e1:i2], x[e1+f.Center-l+1:])
	}
	f.edge(dst[i2:], x, i2+f.Center-l+1)
	return dst
}

// run writes dst[i] = Σ_k Taps[k]·x[i+L−1−k], accumulating in k order,
// for windows that lie in x, which holds len(dst)+L−1 samples.
func (f FIR) run(dst, x []complex128) {
	if kern.FIRCplx(dst, x, f.Taps) {
		return
	}
	l := len(f.Taps)
	for i := range dst {
		base := i + l - 1
		var re, im float64
		for k, t := range f.Taps {
			v := x[base-k]
			re += real(t)*real(v) - imag(t)*imag(v)
			im += real(t)*imag(v) + imag(t)*real(v)
		}
		dst[i] = complex(re, im)
	}
}

// edge is run for outputs whose windows, the first starting at x index
// w0, reach past an end of x. Four outputs at a time, it filters a copy
// of their windows with the samples outside x zeroed, held on the stack
// up to 16 taps.
func (f FIR) edge(dst, x []complex128, w0 int) {
	var buf [4 + 16 - 1]complex128
	for len(dst) > 0 {
		k := min(len(dst), 4)
		f.run(dst[:k], padWindow(buf[:0], x, w0, k+len(f.Taps)-1))
		dst, w0 = dst[k:], w0+k
	}
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
