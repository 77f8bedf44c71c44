// Package channel models the wireless medium the ZigZag evaluation ran
// over. It substitutes for the paper's USRP frontends and indoor 2.4 GHz
// propagation with exactly the impairment model the paper itself uses
// (Chapter 3): a flat-fading quasi-static complex gain H = h·e^{jγ}
// (Eq. 3.1), a carrier frequency offset that rotates the signal by
// e^{j2πnδfT} (§3.1.1), a fractional sampling offset with clock drift
// (§3.1.2), multipath inter-symbol interference (§3.1.3), and additive
// white Gaussian noise.
//
// The Air type is the collision generator: it overlays the transmissions
// of multiple senders at arbitrary sample offsets — the physical fact at
// the heart of the hidden-terminal problem — and adds receiver noise.
package channel

import (
	"math"
	"math/cmplx"
	"math/rand"

	"zigzag/internal/dsp"
)

// Params describes one sender→receiver link. The zero value is a perfect
// unit channel.
type Params struct {
	// Gain is the complex channel coefficient H = h·e^{jγ}. A zero value
	// means 1 (perfect channel).
	Gain complex128

	// FreqOffset is the carrier frequency offset in radians per sample,
	// i.e. 2π·δf·T. Typical 802.11 hardware offsets at 500 ksample/s map
	// to |FreqOffset| up to a few hundredths of a radian per sample.
	FreqOffset float64

	// Phase0 is the carrier phase at the first sample of a transmission.
	// The Air randomizes it per transmission unless frozen, since each
	// packet sees an arbitrary carrier phase.
	Phase0 float64

	// SamplingOffset is the receiver's sampling position offset μ in
	// fractional samples (§3.1.2).
	SamplingOffset float64

	// SamplingDrift is the per-sample drift of μ caused by clock skew.
	SamplingDrift float64

	// ISI is the multipath/hardware distortion filter (§3.1.3). A
	// zero-value FIR (no taps) means no ISI.
	ISI dsp.FIR

	// Interp is the fractional-delay interpolator used to realize the
	// sampling offset. The zero value uses dsp defaults.
	Interp dsp.Interpolator
}

// gain returns the effective complex gain, treating zero as unity.
func (p *Params) gain() complex128 {
	if p.Gain == 0 {
		return 1
	}
	return p.Gain
}

// Amplitude returns |H|.
func (p *Params) Amplitude() float64 { return cmplx.Abs(p.gain()) }

// Apply pushes the transmitted baseband samples x through the link,
// returning the receiver's view (before noise). dst must not alias x.
//
// The processing order mirrors the physics: the transmit/multipath
// filtering happens first (in signal time), then the receiver samples the
// continuous waveform at offset positions, and the carrier offset
// contributes a progressive rotation at those sampling instants.
func (p *Params) Apply(dst, x []complex128) []complex128 {
	var tmp []complex128
	var rs dsp.Resampler
	return p.applyWith(dst, &tmp, &rs, x)
}

// applyWith is Apply with the intermediate ISI buffer and the
// resampler's phase-FIR scratch threaded through tmp and rs, so callers
// rendering many emissions (Air.Mix in a Monte-Carlo loop) reuse all
// working storage instead of allocating per emission. dst and *tmp must
// not alias x or each other; both are grown as needed and the (possibly
// reallocated) result is returned / stored back.
func (p *Params) applyWith(dst []complex128, tmp *[]complex128, rs *dsp.Resampler, x []complex128) []complex128 {
	cur := x
	if len(p.ISI.Taps) > 0 && !p.ISI.IsIdentity() {
		*tmp = p.ISI.Apply(dsp.Ensure(*tmp, len(cur)), cur)
		cur = *tmp
	}
	if p.SamplingOffset != 0 || p.SamplingDrift != 0 {
		rs.Interp = p.Interp
		dst = rs.EvalDrift(dsp.Ensure(dst, len(cur)), cur, p.SamplingOffset, p.SamplingDrift)
		cur = dst
	}
	dst = dsp.Scale(dsp.Ensure(dst, len(cur)), p.gain(), cur)
	if p.FreqOffset != 0 || p.Phase0 != 0 {
		dst = dsp.Rotate(dst, dst, p.Phase0, p.FreqOffset)
	}
	return dst
}

// SNRToGain returns the channel amplitude that yields the requested SNR
// in dB for unit-power transmit symbols against noise of the given
// per-sample power.
func SNRToGain(snrDB, noisePower float64) float64 {
	return math.Sqrt(dsp.FromDB(snrDB) * noisePower)
}

// GainToSNR returns the SNR in dB of a link with amplitude |H| against
// noise of the given per-sample power.
func GainToSNR(amplitude, noisePower float64) float64 {
	if noisePower <= 0 {
		return math.Inf(1)
	}
	return dsp.DB(amplitude * amplitude / noisePower)
}

// Emission is one transmission placed on the air: the transmitted
// baseband samples, the link they traverse, and the sample offset at
// which they start at the receiver.
type Emission struct {
	Samples []complex128
	Link    *Params
	Offset  int
}

// Impairer is the hook the time-varying impairment engine
// (internal/impair.Chain) plugs in beneath the static link model. The
// interface is structural so the channel layer carries no impair
// dependency: BeginReception opens a reception window,
// ImpairEmission transforms one rendered emission in place before it
// is mixed (em is its index, off its sample offset in the window), and
// ImpairFront transforms the mixed buffer after noise. An impairer
// whose Active() is false is never called — Mix is then bit-identical
// to the static path.
type Impairer interface {
	Active() bool
	BeginReception()
	ImpairEmission(em int, buf []complex128, off int)
	ImpairFront(buf []complex128)
}

// EmissionBatcher is the optional batched extension of Impairer: an
// impairer that can transform every rendered emission of a reception in
// one call (bufs[i] is emission i's samples, offs[i] its window
// offset), byte-identically to per-emission ImpairEmission calls. When
// the installed impairer implements it (impair.Chain does), MixInto
// renders all emissions first and impairs them as a batch, which lets
// the impairment engine iterate model-outer and keep each model's
// kernel state hot across the whole reception.
type EmissionBatcher interface {
	ImpairEmissions(bufs [][]complex128, offs []int)
}

// Air mixes emissions into the receiver's sample buffer and adds AWGN.
type Air struct {
	// NoisePower is the mean power E[|w|²] of the complex noise added per
	// received sample. Zero means a noiseless receiver.
	NoisePower float64

	// Rng drives the noise and any randomized per-emission phases. It
	// must be non-nil if NoisePower > 0 or RandomizePhase is set.
	Rng *rand.Rand

	// RandomizePhase gives each emission an independent uniform carrier
	// phase, overriding the link's Phase0, as real asynchronous
	// transmitters would.
	RandomizePhase bool

	// Impair, when non-nil and active, is the time-varying impairment
	// chain applied on top of the static link model: link processes
	// (fading, multipath, oscillator drift) per emission before mixing,
	// front-end processes (interference, ADC) on the mixed buffer after
	// noise. Harnesses install a seeded impair.Chain here per trial;
	// pooled sessions clear it on reset.
	Impair Impairer

	// work and work2 are the per-emission rendering buffers and rsc the
	// resampler scratch Mix reuses across emissions and calls. An Air is
	// single-goroutine by construction (it owns an Rng), so no locking
	// is needed.
	work, work2 []complex128
	rsc         dsp.Resampler

	// emBufs and emOffs are the batched-emission arena: when the
	// impairer implements EmissionBatcher, every emission is rendered
	// into its own reusable buffer so the whole reception can be
	// impaired in one call before mixing.
	emBufs [][]complex128
	emOffs []int
}

// Mix renders a reception window of length n samples containing all the
// emissions at their offsets, plus noise. Emissions extending beyond the
// window are clipped. Mix does not modify the emissions.
//
// Mix allocates the window; Monte-Carlo loops render into a reusable
// caller-owned buffer with MixInto instead.
func (a *Air) Mix(n int, emissions ...Emission) []complex128 {
	return a.MixInto(nil, n, emissions...)
}

// MixInto is Mix rendering into the caller-owned buffer dst, which is
// grown as needed (nil is allowed) and returned resliced to n samples.
// The window is cleared first, so dst's prior contents do not leak into
// the reception. Callers that retain a reception beyond the next render
// (e.g. the online receiver's stored-collision window) must copy it out
// of the buffer they reuse.
func (a *Air) MixInto(dst []complex128, n int, emissions ...Emission) []complex128 {
	out := dsp.Ensure(dst, n)
	for i := range out {
		out[i] = 0
	}
	imp := a.Impair
	if imp != nil && !imp.Active() {
		imp = nil // inactive chains are never called: static path, bit for bit
	}
	if imp != nil {
		imp.BeginReception()
	}
	if b, ok := imp.(EmissionBatcher); ok {
		// Batched path: render every emission first, impair the batch in
		// one call (byte-identical to the sequential path — each
		// (emission, model) application derives its own seed), then mix.
		if cap(a.emBufs) < len(emissions) {
			a.emBufs = append(a.emBufs[:cap(a.emBufs)], make([][]complex128, len(emissions)-cap(a.emBufs))...)
		}
		a.emBufs = a.emBufs[:len(emissions)]
		if cap(a.emOffs) < len(emissions) {
			a.emOffs = make([]int, len(emissions))
		}
		a.emOffs = a.emOffs[:len(emissions)]
		for i, e := range emissions {
			link := e.Link
			if link == nil {
				link = &Params{}
			}
			p := *link // copy so phase randomization is per-emission
			if a.RandomizePhase {
				p.Phase0 = a.Rng.Float64() * 2 * math.Pi
			}
			a.emBufs[i] = p.applyWith(a.emBufs[i], &a.work2, &a.rsc, e.Samples)
			a.emOffs[i] = e.Offset
		}
		b.ImpairEmissions(a.emBufs, a.emOffs)
		for i := range a.emBufs {
			dsp.AddAt(out, a.emOffs[i], a.emBufs[i])
		}
	} else {
		for i, e := range emissions {
			link := e.Link
			if link == nil {
				link = &Params{}
			}
			p := *link // copy so phase randomization is per-emission
			if a.RandomizePhase {
				p.Phase0 = a.Rng.Float64() * 2 * math.Pi
			}
			a.work = p.applyWith(a.work, &a.work2, &a.rsc, e.Samples)
			if imp != nil {
				imp.ImpairEmission(i, a.work, e.Offset)
			}
			dsp.AddAt(out, e.Offset, a.work)
		}
	}
	a.AddNoise(out)
	if imp != nil {
		imp.ImpairFront(out)
	}
	return out
}

// AddNoise adds complex AWGN of power NoisePower to buf in place.
func (a *Air) AddNoise(buf []complex128) {
	if a.NoisePower <= 0 {
		return
	}
	sigma := math.Sqrt(a.NoisePower / 2)
	for i := range buf {
		buf[i] += complex(sigma*a.Rng.NormFloat64(), sigma*a.Rng.NormFloat64())
	}
}

// TypicalISI returns a mild three-tap multipath profile representative of
// the indoor testbed distortions shown in Fig 5-2b: a dominant direct
// path with weaker pre- and post-cursor energy. strength scales the echo
// taps; 1.0 reproduces the default used in the experiments.
func TypicalISI(strength float64) dsp.FIR {
	return dsp.NewFIR([]complex128{
		complex(0.12*strength, 0.04*strength),
		1,
		complex(0.22*strength, -0.06*strength),
	})
}

// RandomParams draws a randomized link: uniform phase, the given SNR,
// frequency offset and sampling offset drawn uniformly within the given
// magnitude bounds, and optional ISI. It is the building block for the
// testbed topology.
func RandomParams(rng *rand.Rand, snrDB, noisePower, maxFreqOffset, maxSamplingOffset float64, isi dsp.FIR) *Params {
	p := &Params{}
	p.Randomize(rng, snrDB, noisePower, maxFreqOffset, maxSamplingOffset, isi)
	return p
}

// Randomize fills p with a RandomParams draw in place (identical draw
// order, no allocation) — the arena-friendly form the pooled session
// engine uses.
func (p *Params) Randomize(rng *rand.Rand, snrDB, noisePower, maxFreqOffset, maxSamplingOffset float64, isi dsp.FIR) {
	amp := SNRToGain(snrDB, noisePower)
	phase := rng.Float64() * 2 * math.Pi
	*p = Params{
		Gain:           complex(amp*math.Cos(phase), amp*math.Sin(phase)),
		FreqOffset:     (2*rng.Float64() - 1) * maxFreqOffset,
		SamplingOffset: (2*rng.Float64() - 1) * maxSamplingOffset,
		ISI:            isi,
	}
}
