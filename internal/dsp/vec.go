// Package dsp provides the complex-baseband signal-processing substrate
// used by every layer of the ZigZag reproduction: vector arithmetic on
// sample streams, windowed-sinc fractional-delay interpolation (with a
// polyphase fast path for grid evaluation — see Resampler — behind the
// re-encode/subtract and chip-estimation hot loops), FIR filtering,
// small dense least-squares solves, and the sliding preamble correlator
// (plain and frequency-offset-compensated) that the paper's collision
// detector is built on (§4.2.1 of the ZigZag paper). The correlator
// here is the naive O(N·M) reference kernel; the detection stack
// dispatches long correlations to the overlap-save engine in the
// dsp/fft subpackage, which reproduces it to rounding error.
//
// Signals are represented as []complex128 throughout, matching the paper's
// Chapter 3 model of a wireless signal as a stream of discrete complex
// numbers. The package is allocation-conscious: the hot-path functions
// accept destination slices so callers can reuse buffers.
package dsp

import (
	"math"
	"math/cmplx"

	"zigzag/internal/dsp/kern"
)

// Add returns dst = a + b element-wise. The slices must have equal length.
// If dst is nil or too short a new slice is allocated. dst may alias a or b.
func Add(dst, a, b []complex128) []complex128 {
	dst = ensure(dst, len(a))
	for i := range a {
		dst[i] = a[i] + b[i]
	}
	return dst
}

// Sub returns dst = a - b element-wise. The slices must have equal length.
// dst may alias a or b.
func Sub(dst, a, b []complex128) []complex128 {
	dst = ensure(dst, len(a))
	for i := range a {
		dst[i] = a[i] - b[i]
	}
	return dst
}

// SubAt subtracts b from a in place starting at offset off within a:
// a[off+i] -= b[i]. Elements of b that fall outside a are ignored. This is
// the core "subtract the re-encoded chunk image from the other collision"
// primitive of ZigZag decoding (§4.2.3). It returns the number of samples
// actually subtracted.
func SubAt(a []complex128, off int, b []complex128) int {
	n := 0
	for i, v := range b {
		j := off + i
		if j < 0 {
			continue
		}
		if j >= len(a) {
			break
		}
		a[j] -= v
		n++
	}
	return n
}

// AddAt adds b into a in place starting at offset off within a, clipping b
// to a's bounds. It is the mixing primitive used by the channel's Air to
// overlay colliding transmissions. It returns the number of samples added.
func AddAt(a []complex128, off int, b []complex128) int {
	n := 0
	for i, v := range b {
		j := off + i
		if j < 0 {
			continue
		}
		if j >= len(a) {
			break
		}
		a[j] += v
		n++
	}
	return n
}

// Scale returns dst = c * a. dst may alias a.
func Scale(dst []complex128, c complex128, a []complex128) []complex128 {
	dst = ensure(dst, len(a))
	for i := range a {
		dst[i] = c * a[i]
	}
	return dst
}

// Rotate applies a progressive phase rotation to a:
//
//	dst[n] = a[n] · exp(j·(phase0 + n·step))
//
// which models a carrier frequency offset of step radians per sample with
// initial phase phase0 (§3.1.1: y[n] = H·x[n]·e^{j2πnδfT}). dst may alias a.
// It runs on the anchored kern.MulTone kernel, within ≤1e-9 of the
// closed form.
func Rotate(dst, a []complex128, phase0, step float64) []complex128 {
	dst = ensure(dst, len(a))
	copy(dst, a)
	kern.MulTone(dst, phase0, step)
	return dst
}

// Conj returns dst = conj(a). dst may alias a.
func Conj(dst, a []complex128) []complex128 {
	dst = ensure(dst, len(a))
	for i := range a {
		dst[i] = cmplx.Conj(a[i])
	}
	return dst
}

// Dot returns the inner product Σ a[i]·conj(b[i]). The slices must have
// equal length; Dot panics otherwise. This is the correlation kernel used
// by the preamble detector.
func Dot(a, b []complex128) complex128 {
	if len(a) != len(b) {
		panic("dsp: Dot length mismatch")
	}
	var s complex128
	for i := range a {
		s += a[i] * cmplx.Conj(b[i])
	}
	return s
}

// Energy returns Σ |a[i]|².
func Energy(a []complex128) float64 {
	var s float64
	for _, v := range a {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return s
}

// WindowEnergy returns, in dst (reused when capacity allows), the
// energy of every w-sample window of y, dst[i] = Σ|y[i..i+w)|², as one
// running sum. It is empty when y is shorter than w or w < 1.
func WindowEnergy(dst []float64, y []complex128, w int) []float64 {
	n := len(y) - w + 1
	if w < 1 || n < 1 {
		return dst[:0]
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	var run float64
	for i, v := range y {
		run += real(v)*real(v) + imag(v)*imag(v)
		if i >= w {
			u := y[i-w]
			run -= real(u)*real(u) + imag(u)*imag(u)
		}
		if i >= w-1 {
			dst[i-w+1] = run
		}
	}
	return dst
}

// Power returns the mean of |a[i]|², or 0 for an empty slice.
func Power(a []complex128) float64 {
	if len(a) == 0 {
		return 0
	}
	return Energy(a) / float64(len(a))
}

// PowerDB returns the mean power of a in decibels, or -Inf for silence.
func PowerDB(a []complex128) float64 {
	p := Power(a)
	if p <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(p)
}

// DB converts a linear power ratio to decibels.
func DB(ratio float64) float64 { return 10 * math.Log10(ratio) }

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/10) }

// WrapPhase wraps an angle to (-π, π].
func WrapPhase(phi float64) float64 {
	for phi > math.Pi {
		phi -= 2 * math.Pi
	}
	for phi <= -math.Pi {
		phi += 2 * math.Pi
	}
	return phi
}

// PhaseDiff returns the wrapped angle of a·conj(b): the phase by which a
// leads b. It is the measurement behind the paper's residual frequency
// offset tracker (§4.2.4b), which compares the phases of a reconstructed
// chunk image and the corresponding residual signal.
func PhaseDiff(a, b complex128) float64 {
	return cmplx.Phase(a * cmplx.Conj(b))
}

// DivPosReal returns c / complex(d, 0) for d > 0 without the generic
// complex-division runtime call. It performs exactly the operations
// Smith's algorithm reduces to when the divisor's imaginary part is
// zero — the ratio term is +0, and the multiplications by it are kept
// so signed-zero components come out bit-identical to the builtin
// division (verified exhaustively over signed zeros and extreme
// magnitudes). Callers must guarantee d > 0; other divisors take the
// builtin path.
func DivPosReal(c complex128, d float64) complex128 {
	if !(d > 0) {
		return c / complex(d, 0)
	}
	return complex((real(c)+imag(c)*0)/d, (imag(c)-real(c)*0)/d)
}

// Clone returns a copy of a.
func Clone(a []complex128) []complex128 {
	out := make([]complex128, len(a))
	copy(out, a)
	return out
}

// MaxAbs returns the index and magnitude of the largest-magnitude element,
// or (-1, 0) for an empty slice.
func MaxAbs(a []complex128) (int, float64) {
	best, bi := 0.0, -1
	for i, v := range a {
		m := real(v)*real(v) + imag(v)*imag(v)
		if m > best {
			best, bi = m, i
		}
	}
	if bi < 0 {
		return -1, 0
	}
	return bi, math.Sqrt(best)
}

// Ensure returns dst resized to length n, reusing its backing array when
// the capacity allows and allocating otherwise. Reused memory is not
// zeroed. It is the scratch-threading primitive the allocation-free hot
// paths are built on.
func Ensure(dst []complex128, n int) []complex128 { return ensure(dst, n) }

// ensure returns dst if it has length n, otherwise a fresh slice of length n.
func ensure(dst []complex128, n int) []complex128 {
	if len(dst) == n {
		return dst
	}
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]complex128, n)
}
