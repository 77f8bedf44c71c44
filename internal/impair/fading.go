package impair

import (
	"math"

	"zigzag/internal/dsp"
	"zigzag/internal/dsp/kern"
)

// Fading multiplies an emission by a time-varying complex gain g(n)
// drawn from a Jakes-style sum-of-sinusoids process: Paths plane waves
// arrive from angles θ_k uniform on the circle, each contributing
// e^{j(2π·Doppler·cos(θ_k)·n + φ_k)}, so the envelope is Rayleigh (or
// Rician, with a line-of-sight component of power K/(K+1) on top) and
// the temporal autocorrelation approaches the classical J₀(2π·f_d·τ)
// shape as Paths grows. The process is normalized to E[|g|²] = 1, so
// the static link gain keeps carrying the mean SNR and the model only
// adds the *dynamics*: deep fades that come and go within a packet at
// a rate set by the Doppler.
//
// Trajectories restart per (reception, emission): the channel is
// coherent within a reception window — which is the regime that
// stresses ZigZag's chunk-wise re-estimation — and independent across
// receptions, matching how the rest of the simulator re-draws links.
//
// It runs on the kern oscillator-bank kernels (gain trajectory
// accumulated into SoA planes, one fused multiply pass), within ≤1e-9
// of the signal scale of a per-sample rotator evaluation of the same
// draws; that evaluation is the package tests' oracle.
type Fading struct {
	// Doppler is the normalized maximum Doppler shift f_d·T in cycles
	// per sample. 0 freezes each trajectory at its initial draw (pure
	// block fading per reception).
	Doppler float64
	// K is the Rician K-factor (linear power ratio of the line-of-sight
	// component to the scattered power); 0 means Rayleigh.
	K float64
	// Paths is the number of scattered sinusoids; 0 means
	// DefaultFadingPaths.
	Paths int
	// Block, when > 1, holds the gain constant over blocks of that many
	// samples (a piecewise-constant trajectory with coherence time
	// Block·T) instead of evaluating it per sample.
	Block int

	// Scratch: the oscillator bank and the gain planes.
	amp, phase, step []float64
	re, im           []float64
}

// DefaultFadingPaths is the sum-of-sinusoids order used when
// Fading.Paths is zero: enough for a convincing Rayleigh envelope and
// J₀-like autocorrelation at simulation cost.
const DefaultFadingPaths = 16

// Name implements LinkModel.
func (f *Fading) Name() string { return "fading" }

func (f *Fading) paths() int {
	if f.Paths > 0 {
		return f.Paths
	}
	return DefaultFadingPaths
}

func (f *Fading) block() int {
	if f.Block > 1 {
		return f.Block
	}
	return 1
}

// ApplyLink implements LinkModel: buf[i] *= g(off+i), with g evaluated
// on the reception's sample grid so an emission's trajectory does not
// depend on where in the window it starts being rendered.
func (f *Fading) ApplyLink(seed int64, buf []complex128, off int) {
	p := f.paths()
	blk := f.block()
	rng := newStream(seed)
	f.amp = growF(f.amp, p)
	f.phase = growF(f.phase, p)
	f.step = growF(f.step, p)
	// Per-path arrival angles and phases; the grid origin off is folded
	// into the initial phase so the trajectory is a pure function of the
	// absolute sample index, and with Block > 1 each oscillator steps
	// one *block* per plane entry.
	scatterAmp := math.Sqrt(1 / (float64(p) * (f.K + 1)))
	base := float64(off)
	for k := 0; k < p; k++ {
		omega := 2 * math.Pi * f.Doppler * math.Cos(rng.angle())
		phi := rng.angle()
		f.amp[k] = scatterAmp
		f.phase[k] = phi + omega*base
		f.step[k] = omega * float64(blk)
	}
	// Line-of-sight component: random phase, power K/(K+1), modeled
	// static within a reception (the standard specular simplification —
	// a rotating LOS is an ordinary carrier offset, which the Drift
	// model covers), so K→∞ converges to the paper's quasi-static
	// channel and the K sweep isolates fade depth. It is a constant
	// folded into the fused multiply.
	losAmp := math.Sqrt(f.K / (f.K + 1))
	losSin, losCos := math.Sincos(rng.angle())
	m := (len(buf) + blk - 1) / blk
	f.re = growF(f.re, m)
	f.im = growF(f.im, m)
	kern.AccumSet(f.re[:m], f.im[:m], f.amp[:p], f.phase[:p], f.step[:p])
	if blk == 1 {
		kern.MulPlanes(buf, f.re, f.im, losAmp*losCos, losAmp*losSin)
	} else {
		kern.MulPlanesHeld(buf, f.re, f.im, losAmp*losCos, losAmp*losSin, blk)
	}
}

// gainAt evaluates n samples of the gain trajectory into dst (test and
// statistics helper; the hot path stays inside ApplyLink).
func (f *Fading) gainAt(seed int64, dst []complex128, n, off int) []complex128 {
	dst = dsp.Ensure(dst, n)
	for i := range dst {
		dst[i] = 1
	}
	f.ApplyLink(seed, dst, off)
	return dst
}

// growF returns dst with length ≥ n (contents unspecified), reusing the
// backing array when possible — the float-plane analogue of dsp.Ensure.
func growF(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// Multipath convolves an emission with a short time-varying FIR whose
// taps fade independently: tap k has mean power Powers[k] (normalized
// to Σ = 1, preserving mean received power) and its own
// sum-of-sinusoids Rayleigh trajectory at the model's Doppler. This is
// the §3.1.3 multipath channel with the quasi-static assumption
// removed — delay-spread distortion whose shape drifts during the
// packet, which is exactly what makes a one-shot FitISI stale.
//
// It shares one kern oscillator bank across all taps (one contiguous
// amp/phase/step triple, per-tap segments), renders each tap's
// trajectory into a tap-major plane pair, and convolves in place with
// one fused backward pass (kern.MulTaps), within ≤1e-9 of the signal
// scale of the per-sample rotator oracle in the package tests.
type Multipath struct {
	// Powers are the relative mean tap powers (tap k delayed k
	// samples); nil means DefaultMultipathPowers.
	Powers []float64
	// Doppler is the normalized fading rate of each tap (f_d·T).
	Doppler float64
	// Paths is the sum-of-sinusoids order per tap; 0 means 8.
	Paths int

	// Scratch: one oscillator bank shared across taps and a
	// tap-major trajectory plane pair (tap k at [k·n, (k+1)·n)).
	amp, phase, step []float64
	re, im           []float64
}

// DefaultMultipathPowers is the three-tap indoor profile used when
// Powers is nil: a dominant direct path with −9 dB and −13 dB echoes.
var DefaultMultipathPowers = []float64{1, 0.125, 0.05}

// Name implements LinkModel.
func (m *Multipath) Name() string { return "multipath" }

func (m *Multipath) powers() []float64 {
	if len(m.Powers) > 0 {
		return m.Powers
	}
	return DefaultMultipathPowers
}

func (m *Multipath) paths() int {
	if m.Paths > 0 {
		return m.Paths
	}
	return 8
}

// ApplyLink implements LinkModel: y[n] = Σ_k h_k(n)·x[n−k] in place.
// Delay-spread energy beyond the emission's last sample is clipped —
// the same window clipping the static channel's Air applies.
func (m *Multipath) ApplyLink(seed int64, buf []complex128, off int) {
	powers := m.powers()
	taps := len(powers)
	p := m.paths()
	rng := newStream(seed)
	m.amp = growF(m.amp, taps*p)
	m.phase = growF(m.phase, taps*p)
	m.step = growF(m.step, taps*p)
	var norm float64
	for _, pw := range powers {
		norm += pw
	}
	base := float64(off)
	// One bank for all taps, drawn tap-major; each tap's mean amplitude
	// is folded into its oscillators, so the per-tap plane is
	// amp_k·h_k(n) directly.
	for k := 0; k < taps; k++ {
		a := math.Sqrt(powers[k] / (norm * float64(p)))
		for j := 0; j < p; j++ {
			omega := 2 * math.Pi * m.Doppler * math.Cos(rng.angle())
			phi := rng.angle()
			m.amp[k*p+j] = a
			m.phase[k*p+j] = phi + omega*base
			m.step[k*p+j] = omega
		}
	}
	n := len(buf)
	// One plane pair per tap, then a single fused in-place backward
	// pass — no input copy, no output zeroing, one sweep over buf.
	m.re = growF(m.re, taps*n)
	m.im = growF(m.im, taps*n)
	for k := 0; k < taps; k++ {
		kern.AccumSet(m.re[k*n:(k+1)*n], m.im[k*n:(k+1)*n], m.amp[k*p:(k+1)*p], m.phase[k*p:(k+1)*p], m.step[k*p:(k+1)*p])
	}
	kern.MulTaps(buf, m.re[:taps*n], m.im[:taps*n], taps)
}

// Drift rotates an emission by a wandering oscillator: a linear
// carrier-frequency drift (Rate rad/sample², §3.1.1's offset made
// time-varying) plus a Brownian phase-noise walk of per-sample
// standard deviation PhaseNoise. Unlike the other link models it runs
// on the emission's *own* clock (the sender's oscillator does not know
// where in the receiver window the packet landed), so the process
// starts at the first transmitted sample.
type Drift struct {
	// Rate is the carrier-frequency drift in rad/sample² — after n
	// samples the instantaneous offset has moved by Rate·n rad/sample.
	Rate float64
	// PhaseNoise is the standard deviation of the per-sample phase
	// random-walk increment in radians.
	PhaseNoise float64

	// Scratch: the precomputed phase-noise increment plane.
	delta []float64
}

// Name implements LinkModel.
func (d *Drift) Name() string { return "drift" }

// ApplyLink implements LinkModel. It precomputes the phase-noise walk
// increments into a plane, one normal draw per sample in sample order,
// and runs the block-anchored quadratic-phase recurrence kernel; with
// PhaseNoise == 0 it collapses to the pure carrier recurrence with no
// per-sample draws or Sincos at all. It agrees with the per-sample
// rotator oracle in the package tests to ≤1e-9 of the signal scale.
func (d *Drift) ApplyLink(seed int64, buf []complex128, off int) {
	if d.PhaseNoise > 0 {
		rng := newStream(seed)
		n := len(buf)
		d.delta = growF(d.delta, n)
		delta := d.delta[:n]
		// Box–Muller pairs inlined (a fresh stream starts with no
		// spare, so draws land exactly as n calls to rng.norm()).
		i := 0
		for ; i+1 < n; i += 2 {
			u := 1 - rng.float64()
			v := rng.angle()
			r := math.Sqrt(-2 * math.Log(u))
			sin, cos := math.Sincos(v)
			delta[i] = d.PhaseNoise * (r * cos)
			delta[i+1] = d.PhaseNoise * (r * sin)
		}
		if i < n {
			u := 1 - rng.float64()
			v := rng.angle()
			r := math.Sqrt(-2 * math.Log(u))
			_, cos := math.Sincos(v)
			delta[i] = d.PhaseNoise * (r * cos)
		}
		kern.RotateQuad(buf, d.Rate, delta)
		return
	}
	kern.RotateQuad(buf, d.Rate, nil)
}
