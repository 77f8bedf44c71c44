package dsp

import (
	"math"
	"sync"

	"zigzag/internal/dsp/kern"
)

// This file holds the polyphase fractional-delay resampling engine that
// the decode hot path runs on. The observation (§4.2.3b): when a signal
// is evaluated on a unit-spaced grid — every chip of a chunk being
// re-encoded, every sample of a constant-offset shift — the fractional
// part μ of the evaluation position is the same for every output, so
// the windowed-sinc kernel collapses to a single 2·Taps-tap FIR (one
// "phase" of the polyphase decomposition of the interpolation filter).
// Instead of quantizing μ to a table of pre-baked phases and blending
// between them (whose O(P⁻²) coefficient error would break the ≤1e−12
// polyphase-vs-direct agreement the fuzz suite pins, and could flip the
// count-exact experiment goldens), the phase FIR for any μ is computed
// in closed form: sin(π(μ+m)) = (−1)^m·sin(πμ) and the angle-addition
// identity for the Hann window reduce the 2·Taps sin/cos evaluations of
// the direct kernel to three transcendentals per phase, exact to
// rounding error.

// Polyphase is the polyphase decomposition of the Hann-windowed sinc
// interpolation kernel with one-sided support taps: the per-tap
// constants from which the phase FIR for any fractional offset
// μ ∈ (0, 1) is generated in closed form by Kernel. Banks are immutable
// after construction and shared via PolyphaseFor.
type Polyphase struct {
	taps int
	// Per tap j ∈ [0, 2·taps): the integer kernel offset m = taps−1−j
	// (so that coefficient j multiplies sample base−taps+1+j when
	// evaluating at position base+μ), its parity sign (−1)^m, and the
	// Hann angle-addition constants cos(πm/taps), sin(πm/taps).
	sgn  []float64
	off  []float64
	cosw []float64
	sinw []float64
}

// polyBanks caches one immutable bank per support size.
var polyBanks sync.Map // int → *Polyphase

// PolyphaseFor returns the shared polyphase bank for the given
// one-sided support (≤0 means DefaultSincTaps).
func PolyphaseFor(taps int) *Polyphase {
	if taps <= 0 {
		taps = DefaultSincTaps
	}
	if v, ok := polyBanks.Load(taps); ok {
		return v.(*Polyphase)
	}
	v, _ := polyBanks.LoadOrStore(taps, newPolyphase(taps))
	return v.(*Polyphase)
}

func newPolyphase(t int) *Polyphase {
	n := 2 * t
	pp := &Polyphase{
		taps: t,
		sgn:  make([]float64, n),
		off:  make([]float64, n),
		cosw: make([]float64, n),
		sinw: make([]float64, n),
	}
	for j := 0; j < n; j++ {
		m := t - 1 - j
		s := 1.0
		if m&1 != 0 {
			s = -1
		}
		pp.sgn[j] = s
		pp.off[j] = float64(m)
		a := math.Pi * float64(m) / float64(t)
		pp.cosw[j] = math.Cos(a)
		pp.sinw[j] = math.Sin(a)
	}
	return pp
}

// Taps returns the bank's one-sided support.
func (pp *Polyphase) Taps() int { return pp.taps }

// Kernel fills dst with the 2·taps phase-FIR coefficients for
// fractional offset mu ∈ (0, 1):
//
//	dst[j] = sincHann(mu + taps−1−j, taps)
//
// so that the interpolated value at position base+mu is
// Σ_j dst[j]·x[base−taps+1+j]. The closed form agrees with direct
// sincHann evaluation to rounding error (a few ulp). dst is reused when
// its capacity allows.
func (pp *Polyphase) Kernel(dst []float64, mu float64) []float64 {
	n := 2 * pp.taps
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	// sin(πμ) via the complement for μ > ½: the argument π(1−μ) is then
	// small, avoiding the relative-accuracy loss of evaluating sin near
	// π (1−μ is exact by Sterbenz). This keeps the closed form within a
	// few ulp of direct sincHann evaluation for every phase.
	s := math.Sin(math.Pi * mu)
	if mu > 0.5 {
		s = math.Sin(math.Pi * (1 - mu))
	}
	a := math.Pi * mu / float64(pp.taps)
	cw, sw := math.Cos(a), math.Sin(a)
	for j := range dst {
		d := mu + pp.off[j]
		sinc := pp.sgn[j] * s / (math.Pi * d)
		hann := 0.5 * (1 + cw*pp.cosw[j] - sw*pp.sinw[j])
		dst[j] = sinc * hann
	}
	return dst
}

// Resampler evaluates fractional-delay interpolation over whole sample
// grids on the polyphase engine; Interpolator.At is its per-sample
// reference, which the tests pin it against. It owns the phase-FIR scratch
// so steady-state resampling allocates nothing; a Resampler must not be
// shared by concurrent goroutines. The zero value with the desired
// Interp is ready to use.
type Resampler struct {
	Interp Interpolator
	coef   []float64

	// pp caches the shared polyphase bank for ppTaps, so steady-state
	// grid evaluation skips the PolyphaseFor sync.Map lookup.
	pp     *Polyphase
	ppTaps int

	// coefMu is the fractional offset the current coef contents were
	// generated for (NaN when coef is stale). Kernel is a pure function
	// of (taps, mu), so reusing coef when mu repeats is bit-identical;
	// under a constant-offset EvalDrift the fractional part takes only a
	// handful of distinct values over a whole emission, which turns the
	// per-sample Kernel generation into a rare event.
	coefMu float64
}

// bank returns the polyphase bank for t taps through the cache.
func (rs *Resampler) bank(t int) *Polyphase {
	if rs.pp == nil || rs.ppTaps != t {
		rs.pp = PolyphaseFor(t)
		rs.ppTaps = t
		rs.coefMu = math.NaN()
	}
	return rs.pp
}

// EvalGrid writes dst[i] = x(pos0+i) for i ∈ [0, n): the signal
// evaluated on the unit-spaced grid anchored at fractional position
// pos0, with positions outside x reading zero (Interpolator.At
// semantics). Because the grid is unit-spaced, the fractional part of
// every position is the same and one phase FIR serves all n outputs —
// this is the kernel under chunk re-encoding (§4.2.3b) and chip
// estimation. dst is reused when its capacity allows and must not
// alias x.
func (rs *Resampler) EvalGrid(dst, x []complex128, pos0 float64, n int) []complex128 {
	dst = ensure(dst, n)
	if n <= 0 {
		return dst
	}
	base0 := int(math.Floor(pos0))
	mu := pos0 - float64(base0)
	if mu == 0 {
		// Integer grid: a pure (clipped) copy.
		for i := range dst {
			if k := base0 + i; k >= 0 && k < len(x) {
				dst[i] = x[k]
			} else {
				dst[i] = 0
			}
		}
		return dst
	}
	t := rs.Interp.taps()
	pp := rs.bank(t)
	if mu != rs.coefMu {
		rs.coef = pp.Kernel(rs.coef, mu)
		rs.coefMu = mu
	}
	coef := rs.coef
	// Output i reads x[base0+i−t+1 : base0+i+t+1); split the range into
	// the fully supported interior and the zero-padded edges.
	lo := t - 1 - base0          // first fully supported output
	hi := len(x) - 1 - t - base0 // last fully supported output
	e1 := lo
	if e1 < 0 {
		e1 = 0
	}
	if e1 > n {
		e1 = n
	}
	i2 := hi + 1
	if i2 < e1 {
		i2 = e1
	}
	if i2 > n {
		i2 = n
	}
	// Outputs whose window misses x entirely are exactly zero (the
	// clipped accumulation over an empty overlap): window [base0+i−t+1,
	// base0+i+t] lies fully below x for i < −base0−t and fully above for
	// i ≥ len(x)+t−1−base0. Zero-fill those stretches outright so the
	// per-tap clipped evaluation only runs where the window actually
	// straddles an edge.
	z0 := -base0 - t
	if z0 < 0 {
		z0 = 0
	}
	if z0 > e1 {
		z0 = e1
	}
	z1 := len(x) + t - 1 - base0
	if z1 < i2 {
		z1 = i2
	}
	if z1 > n {
		z1 = n
	}
	for i := 0; i < z0; i++ {
		dst[i] = 0
	}
	for i := z0; i < e1; i++ {
		dst[i] = dotKernelClipped(x, base0+i-t+1, coef)
	}
	if len(coef) == 8 && i2 > e1 {
		// The default support takes the packed sliding-window kernel —
		// bit-identical to the dotKernel8 loop (see kern.FIRReal8).
		kern.FIRReal8(dst[e1:i2], x[base0+e1-t+1:], coef)
	} else {
		for i := e1; i < i2; i++ {
			dst[i] = dotKernel(x[base0+i-t+1:], coef)
		}
	}
	for i := i2; i < z1; i++ {
		dst[i] = dotKernelClipped(x, base0+i-t+1, coef)
	}
	for i := z1; i < n; i++ {
		dst[i] = 0
	}
	return dst
}

// EvalDrift writes dst[n] = x(n + mu0 + n·drift) for n ∈ [0, len(x)):
// resampling with a linearly drifting offset (ShiftDrift semantics,
// §3.1.2). The fractional part now changes per sample, so a fresh phase
// FIR is generated per output — still only three transcendentals each
// via the closed form, versus 2·(2·Taps) for the direct kernel. dst is
// reused when its capacity allows and must not alias x.
func (rs *Resampler) EvalDrift(dst, x []complex128, mu0, drift float64) []complex128 {
	dst = ensure(dst, len(x))
	t := rs.Interp.taps()
	pp := rs.bank(t)
	if cap(rs.coef) < 2*t {
		rs.coef = make([]float64, 2*t)
		rs.coefMu = math.NaN()
	}
	coef := rs.coef[:2*t]
	for n := range dst {
		pos := float64(n) + mu0 + float64(n)*drift
		base := int(math.Floor(pos))
		mu := pos - float64(base)
		if mu == 0 {
			if base >= 0 && base < len(x) {
				dst[n] = x[base]
			} else {
				dst[n] = 0
			}
			continue
		}
		if mu != rs.coefMu {
			pp.Kernel(coef, mu)
			rs.coefMu = mu
		}
		if w0 := base - t + 1; w0 >= 0 && w0+2*t <= len(x) {
			dst[n] = dotKernel(x[w0:], coef)
		} else {
			dst[n] = dotKernelClipped(x, w0, coef)
		}
	}
	return dst
}

// dotKernel is the full-support inner product Σ_j coef[j]·w[j], with
// the real/imaginary accumulation matching complex(coef[j],0)·w[j]
// addition bit for bit. The default-support case (4 one-sided taps →
// 8 coefficients) takes a straight-line specialization whose adds run
// in the loop's exact order, so both paths are bit-identical.
func dotKernel(w []complex128, coef []float64) complex128 {
	if len(coef) == 8 {
		return dotKernel8(w, coef)
	}
	w = w[:len(coef)]
	var re, im float64
	for j, c := range coef {
		v := w[j]
		re += c * real(v)
		im += c * imag(v)
	}
	return complex(re, im)
}

// dotKernel8 is dotKernel for exactly eight coefficients: the same
// sequential accumulation with the loop and bounds checks peeled away.
func dotKernel8(w []complex128, coef []float64) complex128 {
	w = w[:8]
	coef = coef[:8]
	var re, im float64
	re += coef[0] * real(w[0])
	im += coef[0] * imag(w[0])
	re += coef[1] * real(w[1])
	im += coef[1] * imag(w[1])
	re += coef[2] * real(w[2])
	im += coef[2] * imag(w[2])
	re += coef[3] * real(w[3])
	im += coef[3] * imag(w[3])
	re += coef[4] * real(w[4])
	im += coef[4] * imag(w[4])
	re += coef[5] * real(w[5])
	im += coef[5] * imag(w[5])
	re += coef[6] * real(w[6])
	im += coef[6] * imag(w[6])
	re += coef[7] * real(w[7])
	im += coef[7] * imag(w[7])
	return complex(re, im)
}

// dotKernelClipped is dotKernel at a window starting at w0 that may
// extend past x's bounds; out-of-range samples read zero.
func dotKernelClipped(x []complex128, w0 int, coef []float64) complex128 {
	var re, im float64
	for j, c := range coef {
		k := w0 + j
		if k < 0 || k >= len(x) {
			continue
		}
		v := x[k]
		re += c * real(v)
		im += c * imag(v)
	}
	return complex(re, im)
}
