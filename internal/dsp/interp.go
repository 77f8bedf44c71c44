package dsp

import "math"

// DefaultSincTaps is the number of neighbouring samples used on each side
// by the windowed-sinc fractional-delay interpolator. The paper
// approximates the Nyquist reconstruction sum "over few symbols (about 8
// symbols) in the neighbourhood of n" (§4.2.3b); 8 total taps means 4 per
// side, and we default to that.
const DefaultSincTaps = 4

// Interpolator resamples a band-limited complex signal at fractional
// sample positions using a Hann-windowed sinc kernel. It implements the
// Nyquist interpolation of §4.2.3b:
//
//	y(n+μ) = Σ_i y[i] · sinc(π(n+μ−i))
//
// truncated to ±Taps samples around n and tapered with a Hann window to
// suppress truncation ripple.
type Interpolator struct {
	// Taps is the one-sided support of the kernel. The kernel spans
	// 2·Taps samples. Zero means DefaultSincTaps.
	Taps int
}

func (ip Interpolator) taps() int {
	if ip.Taps <= 0 {
		return DefaultSincTaps
	}
	return ip.Taps
}

// At returns the interpolated value of x at fractional position pos.
// Positions outside [0, len(x)-1] read zeros beyond the edges, which is
// correct for packet buffers embedded in silence.
func (ip Interpolator) At(x []complex128, pos float64) complex128 {
	t := ip.taps()
	n := int(math.Floor(pos))
	mu := pos - float64(n)
	if mu == 0 {
		// Exact sample position: no interpolation needed.
		if n < 0 || n >= len(x) {
			return 0
		}
		return x[n]
	}
	var acc complex128
	// Kernel support: samples n-t+1 .. n+t.
	for i := n - t + 1; i <= n+t; i++ {
		if i < 0 || i >= len(x) {
			continue
		}
		d := pos - float64(i) // in (-t, t)
		w := sincHann(d, float64(t))
		acc += x[i] * complex(w, 0)
	}
	return acc
}

// Shift resamples x by a constant fractional delay mu: dst[n] = x(n+mu).
// dst must not alias x. If dst is nil a new slice of len(x) is allocated.
// This is how the channel model applies a sampling offset, and how ZigZag
// re-creates the receiver's view of a re-encoded chunk (§4.2.3b). A
// constant delay means a constant fractional part, so the whole shift
// runs on a single polyphase FIR (see Resampler).
func (ip Interpolator) Shift(dst, x []complex128, mu float64) []complex128 {
	dst = ensure(dst, len(x))
	if mu == 0 {
		copy(dst, x)
		return dst
	}
	rs := Resampler{Interp: ip}
	return rs.EvalGrid(dst, x, mu, len(x))
}

// ShiftDrift resamples x with a linearly drifting sampling offset:
// dst[n] = x(n + mu0 + n·driftPerSample). A non-zero drift models the
// clock skew between transmitter and receiver that forces practical
// decoders to *track* the sampling offset over a packet (§3.1.2). The
// drifting fractional part takes the per-sample closed-form polyphase
// path (Resampler.EvalDrift).
func (ip Interpolator) ShiftDrift(dst, x []complex128, mu0, driftPerSample float64) []complex128 {
	rs := Resampler{Interp: ip}
	return rs.EvalDrift(ensure(dst, len(x)), x, mu0, driftPerSample)
}

// sincHann is the Hann-windowed normalized sinc kernel with one-sided
// support t, evaluated at offset d (|d| < t).
func sincHann(d, t float64) float64 {
	if d == 0 {
		return 1
	}
	if d <= -t || d >= t {
		return 0
	}
	s := math.Sin(math.Pi*d) / (math.Pi * d)
	w := 0.5 * (1 + math.Cos(math.Pi*d/t))
	return s * w
}

// Sinc returns the normalized sinc function sin(πx)/(πx).
func Sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	return math.Sin(math.Pi*x) / (math.Pi * x)
}
