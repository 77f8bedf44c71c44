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
	// the grid evaluations of one packet (its chunk images, its chip
	// estimates) share one fractional part, which turns Kernel
	// generation into a rare event.
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
	base0, mu := splitPos(pos0)
	rs.grid(dst, x, base0, mu)
	return dst
}

// splitPos splits an evaluation position into its sample index and its
// fractional part μ ∈ [0, 1). A position less than 2^−54 below zero
// would have pos − ⌊pos⌋ round up to 1, outside Kernel's domain (one
// coefficient is 0/0); it is sample 0 to within rounding.
func splitPos(pos float64) (int, float64) {
	base := int(math.Floor(pos))
	mu := pos - float64(base)
	if mu == 1 {
		return base + 1, 0
	}
	return base, mu
}

// grid writes dst[i] = x(base0+i+mu) for mu ∈ [0, 1) with one phase
// FIR. Outputs whose window lies in x run the kernel on x itself;
// outputs whose window reaches past an end of x run it on a copy of
// their windows with the samples outside x zeroed. That is exact: an
// accumulator starts at +0 and can never become −0, so the extra
// c·0 = ±0 terms change no bit of the sum over the samples in x.
func (rs *Resampler) grid(dst, x []complex128, base0 int, mu float64) {
	n := len(dst)
	if mu == 0 {
		// Integer grid: a pure (clipped) copy.
		for i := range dst {
			if k := base0 + i; k >= 0 && k < len(x) {
				dst[i] = x[k]
			} else {
				dst[i] = 0
			}
		}
		return
	}
	t := rs.Interp.taps()
	pp := rs.bank(t)
	if mu != rs.coefMu {
		rs.coef = pp.Kernel(rs.coef, mu)
		rs.coefMu = mu
	}
	coef := rs.coef
	// Output i reads x[base0+i−t+1 : base0+i+t+1). Outputs [0, z0) and
	// [z1, n) read nothing of x and are zero, [z0, e1) and [i2, z1)
	// reach past its start and end, and [e1, i2) is fully supported.
	e1 := min(max(t-1-base0, 0), n)
	i2 := min(max(len(x)-t-base0, e1), n)
	z0 := min(max(-base0-t, 0), e1)
	z1 := min(max(len(x)+t-1-base0, i2), n)
	// Each edge takes whole blocks of four outputs, borrowing them from
	// the interior, so only the interior's last partial block runs the
	// packed kernel's scalar tail.
	e1 = min(z0+(e1-z0+3)&^3, i2)
	i2 = max(i2-(i2-z1)&3, e1)
	clear(dst[:z0])
	edge(dst[z0:e1], x, base0+z0-t+1, coef)
	if i2 > e1 {
		firReal(dst[e1:i2], x[base0+e1-t+1:], coef)
	}
	edge(dst[i2:z1], x, base0+i2-t+1, coef)
	clear(dst[z1:])
}

// edge is firReal for outputs whose windows, the first starting at x
// index w0, reach past an end of x. Four outputs at a time, it runs on
// a copy of their windows with the samples outside x zeroed, held on
// the stack up to eight one-sided taps.
func edge(dst, x []complex128, w0 int, coef []float64) {
	var buf [4 + 2*8 - 1]complex128
	for len(dst) > 0 {
		k := min(len(dst), 4)
		firReal(dst[:k], padWindow(buf[:0], x, w0, k+len(coef)-1), coef)
		dst, w0 = dst[k:], w0+k
	}
}

// firReal writes dst[i] = Σ_j coef[j]·x[i+j], accumulating in j order:
// on the packed kernel for the default support (eight coefficients),
// otherwise on the scalar loop. x must hold len(dst)+len(coef)−1
// samples.
func firReal(dst, x []complex128, coef []float64) {
	if len(coef) == 8 {
		kern.FIRReal8(dst, x, coef)
		return
	}
	for i := range dst {
		dst[i] = dot(x[i:], coef)
	}
}

// dot is one output of firReal: Σ_j coef[j]·w[j], accumulating in j
// order, on kern.Dot8 for the default support.
func dot(w []complex128, coef []float64) complex128 {
	if len(coef) == 8 {
		return kern.Dot8(w, coef)
	}
	w = w[:len(coef)]
	var re, im float64
	for j, c := range coef {
		re += c * real(w[j])
		im += c * imag(w[j])
	}
	return complex(re, im)
}

// padWindow returns buf, grown as needed, holding the m samples
// x[w0 : w0+m] with the positions outside x read as zero.
func padWindow(buf, x []complex128, w0, m int) []complex128 {
	buf = ensure(buf, m)
	clear(buf)
	if lo, hi := max(w0, 0), min(w0+m, len(x)); lo < hi {
		copy(buf[lo-w0:], x[lo:hi])
	}
	return buf
}

// EvalDrift writes dst[n] = x(n + mu0 + n·drift) for n ∈ [0, len(x)):
// resampling with a linearly drifting offset (ShiftDrift semantics,
// §3.1.2). dst is reused when its capacity allows and must not alias x.
//
// With drift 0 — every link whose clocks are not skewed — output n
// sits at fl(n+mu0). For |mu0| < 1 that splits into runs of n over
// which n+mu0 stays in one binade [2^k, 2^(k+1)): n is a multiple of
// twice the binade's ulp, so fl(n+mu0) = n + ρ with ρ the rounding of
// mu0 to that ulp, and the fractional part and base−n are constant
// over the run. Each run is one grid evaluation. (EvalGrid at mu0 is
// not a substitute: ρ moves by an ulp from one binade to the next.)
// With drift the fractional part changes per output, and each output
// takes its own phase FIR — three transcendentals via the closed form,
// versus 2·(2·Taps) for the direct kernel.
func (rs *Resampler) EvalDrift(dst, x []complex128, mu0, drift float64) []complex128 {
	dst = ensure(dst, len(x))
	if drift != 0 || !(math.Abs(mu0) < 1) {
		rs.driftAt(dst, x, 0, mu0, drift)
		return dst
	}
	// Run k is n ∈ [2^k+s, 2^(k+1)+s), which keeps n+mu0 in
	// [2^k, 2^(k+1)); s = 1 when mu0 < 0. The outputs before the first
	// run go one at a time.
	s := 0
	if mu0 < 0 {
		s = 1
	}
	rs.driftAt(dst[:min(1+s, len(dst))], x, 0, mu0, drift)
	for a := 1 + s; a < len(dst); a = 2*a - s {
		b := min(2*a-s, len(dst))
		// Check the run's phase and offset at its last output against
		// its first; a mismatch falls back to one output at a time.
		ba, mu := splitPos(driftPos(a, mu0, drift))
		bb, mub := splitPos(driftPos(b-1, mu0, drift))
		if mu != mub || ba-a != bb-(b-1) {
			rs.driftAt(dst[a:b], x, a, mu0, drift)
			continue
		}
		rs.grid(dst[a:b], x, ba, mu)
	}
	return dst
}

// driftPos is the position EvalDrift evaluates output n at.
func driftPos(n int, mu0, drift float64) float64 {
	return float64(n) + mu0 + float64(n)*drift
}

// driftAt writes dst[i] = x(driftPos(n0+i, mu0, drift)), each output
// with the phase FIR of its own fractional part; windows that reach
// past an end of x run through edge, as in grid.
func (rs *Resampler) driftAt(dst, x []complex128, n0 int, mu0, drift float64) {
	t := rs.Interp.taps()
	pp := rs.bank(t)
	if len(rs.coef) != 2*t {
		rs.coef = make([]float64, 2*t)
		rs.coefMu = math.NaN()
	}
	coef := rs.coef
	for i := range dst {
		base, mu := splitPos(driftPos(n0+i, mu0, drift))
		if mu == 0 {
			if base >= 0 && base < len(x) {
				dst[i] = x[base]
			} else {
				dst[i] = 0
			}
			continue
		}
		if mu != rs.coefMu {
			pp.Kernel(coef, mu)
			rs.coefMu = mu
		}
		if w0 := base - t + 1; w0 >= 0 && w0+2*t <= len(x) {
			dst[i] = dot(x[w0:], coef)
		} else {
			edge(dst[i:i+1], x, w0, coef)
		}
	}
}
