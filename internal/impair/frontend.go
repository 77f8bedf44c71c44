package impair

import "zigzag/internal/dsp/kern"

// Interferer adds a bursty narrowband tone to the mixed reception —
// the classic coexistence nuisance (a Bluetooth hop, a leaky
// microwave) that collision detection and chunk decoding must ride
// out. Bursts follow a two-state Markov process: per-sample transition
// probabilities 1/MeanOn and 1/MeanOff give geometrically distributed
// burst and gap lengths with duty cycle MeanOn/(MeanOn+MeanOff), and
// the initial state is drawn at that duty so the long-run occupancy
// holds from the first sample. Each burst restarts the tone at a fresh
// random phase, as a re-keyed hopper would.
type Interferer struct {
	// Freq is the tone frequency in rad/sample (its offset from the
	// receiver's center frequency).
	Freq float64
	// Amp is the tone amplitude (relative to the unit-power transmit
	// constellation the links scale).
	Amp float64
	// MeanOn and MeanOff are the mean burst and gap lengths in samples.
	// Zero values default to 400 and the value matching a 10% duty.
	MeanOn, MeanOff float64
}

// Name implements FrontModel.
func (it *Interferer) Name() string { return "interferer" }

func (it *Interferer) means() (float64, float64) {
	on, off := it.MeanOn, it.MeanOff
	if on <= 0 {
		on = 400
	}
	if off <= 0 {
		off = 9 * on
	}
	return on, off
}

// Duty returns the long-run fraction of samples the interferer is on.
func (it *Interferer) Duty() float64 {
	on, off := it.means()
	return on / (on + off)
}

// ApplyFront implements FrontModel. It scans the Markov chain first —
// one draw per sample for the transition, plus one phase draw as each
// burst starts, interleaved in sample order — and then renders each
// recorded burst with one anchored-phasor AddTone pass over its sample
// range. The burst boundaries are the same decisions as a per-sample
// rotator loop over the same draws, and the rendering matches it to
// ≤1e-9 of the tone amplitude; that loop is the package tests' oracle.
func (it *Interferer) ApplyFront(seed int64, buf []complex128) {
	on, off := it.means()
	pOnOff := 1 / on
	pOffOn := 1 / off
	rng := newStream(seed)
	active := rng.float64() < it.Duty()
	var phase float64
	if active {
		phase = rng.angle()
	}
	start := 0
	for i := range buf {
		if active {
			if rng.float64() < pOnOff {
				active = false
				kern.AddTone(buf[start:i+1], it.Amp, phase, it.Freq)
			}
		} else if rng.float64() < pOffOn {
			active = true
			phase = rng.angle()
			start = i + 1 // a burst's tone starts on the *next* sample
		}
	}
	if active && start < len(buf) {
		kern.AddTone(buf[start:], it.Amp, phase, it.Freq)
	}
}

// ADC models the receiver's converter: the I and Q rails clip at
// ±FullScale and quantize to Bits bits (mid-tread, 2^Bits−1 levels
// across the full scale). It is deterministic — the derived seed is
// unused — and belongs at the end of the front-end chain, after noise
// and interference, where a real converter sits.
type ADC struct {
	// Bits is the per-rail resolution; values outside [1, 24] are
	// clamped. 0 means 8.
	Bits int
	// FullScale is the clip level; 0 means DefaultADCFullScale.
	FullScale float64
}

// DefaultADCFullScale clips at 4× the unit constellation amplitude —
// generous headroom for constructive collision peaks, matching a
// front-end with automatic gain control settled on a single sender.
const DefaultADCFullScale = 4.0

// Name implements FrontModel.
func (a *ADC) Name() string { return "adc" }

// ApplyFront implements FrontModel.
func (a *ADC) ApplyFront(_ int64, buf []complex128) {
	bits := a.Bits
	if bits == 0 {
		bits = 8
	}
	if bits < 1 {
		bits = 1
	}
	if bits > 24 {
		bits = 24
	}
	fs := a.FullScale
	if fs <= 0 {
		fs = DefaultADCFullScale
	}
	levels := float64(int(1)<<uint(bits-1)) - 1 // per-rail positive steps
	if levels < 1 {
		levels = 1 // Bits=1: a three-level hard limiter, not a 0/0 NaN
	}
	// Branch-free min/max clamp + round(x/fs·levels)/levels·fs per
	// rail; bit-identical to the clamp-and-round rail loop the package
	// tests hold it to.
	kern.ClipQuant(buf, fs, levels)
}
