package phy

import (
	"fmt"
	"math"
	"math/cmplx"

	"zigzag/internal/dsp"
	"zigzag/internal/dsp/kern"
	"zigzag/internal/modem"
)

// SymbolDecoder is the standard decoder ZigZag drives as a black box
// (§4.2.3a). One instance holds the decoding state for one packet within
// one reception: the synchronization (fractional start, channel gain,
// coarse frequency offset), the symbol-spaced equalizer, and the
// decision-directed phase tracking loop. Because chunks are decoded only
// after interference has been subtracted, this is exactly the decoder a
// collision-free 802.11 receiver would run.
type SymbolDecoder struct {
	cfg    Config
	sync   Sync
	scheme modem.Scheme
	interp dsp.Interpolator
	invAmp float64

	// Equalizer: symbol-spaced taps applied as
	// z[k] = Σ_{l=-T..T} eq[T+l]·raw[k−l]; nil means pass-through.
	eq []complex128

	// Phase tracking loop (2nd order): the correction e^{−j·phase} is
	// applied to each equalized symbol; the loop integrates the decision
	// error into phase and freqAdj (§4.2.4b).
	phase   float64
	freqAdj float64

	// Reusable working storage: the polyphase chip evaluator and the
	// chip/raw-symbol/decision buffers DecodeRange fills. With these
	// threaded, steady-state decoding allocates nothing. Forks get fresh
	// scratch (never shared), since callers may hold one decoder's
	// DecodeRange output while running another.
	rs      dsp.Resampler
	chipBuf []complex128
	rawBuf  []complex128
	decBuf  []complex128
	softBuf []complex128

	// Equalizer-training working storage: the raw-symbol observations,
	// the known symbols laid out on the raw grid, the solver scratch, and
	// the decoder-owned backing of the accepted taps. With these
	// threaded, steady-state retraining allocates nothing.
	trainRaw []complex128
	trainY   []complex128
	eqBuf    []complex128
	lsq      dsp.LSQ
}

// NewSymbolDecoder builds a decoder for one packet occurrence.
func NewSymbolDecoder(cfg Config, s Sync, scheme modem.Scheme) *SymbolDecoder {
	d := &SymbolDecoder{}
	d.Reinit(cfg, s, scheme)
	return d
}

// Reinit re-anchors the decoder to a new (configuration, sync,
// modulation) triple, resetting the equalizer and phase-tracking state
// while keeping all scratch buffers. A pooled decoder reinitialized this
// way is observationally identical to NewSymbolDecoder: retained
// buffers are fully overwritten before they are read, which the
// decode-session bit-identity tests pin.
func (d *SymbolDecoder) Reinit(cfg Config, s Sync, scheme modem.Scheme) {
	d.cfg = cfg
	d.sync = s
	d.scheme = scheme
	d.interp = cfg.Interp
	d.rs.Interp = cfg.Interp
	amp := cmplx.Abs(s.H)
	d.invAmp = 1.0
	if amp > 0 {
		d.invAmp = 1 / amp
	}
	d.eq = nil
	d.phase, d.freqAdj = 0, 0
}

// Sync returns the synchronization this decoder was built from.
func (d *SymbolDecoder) Sync() Sync { return d.sync }

// Scheme returns the modulation this decoder demaps.
func (d *SymbolDecoder) Scheme() modem.Scheme { return d.scheme }

// Fork returns a decoder sharing the sync and trained equalizer but with
// fresh phase-tracking state. Backward decoding (§4.3b) runs on a fork so
// the forward pass's loop state is untouched.
func (d *SymbolDecoder) Fork() *SymbolDecoder {
	c := *d
	if d.eq != nil {
		c.eq = append([]complex128(nil), d.eq...)
	}
	c.phase, c.freqAdj = 0, 0
	// Scratch is per-decoder: the fork must not overwrite buffers whose
	// contents a caller still holds from the original decoder.
	c.rs = dsp.Resampler{Interp: d.interp}
	c.chipBuf, c.rawBuf, c.decBuf, c.softBuf = nil, nil, nil, nil
	c.trainRaw, c.trainY = nil, nil
	c.eqBuf = nil
	c.lsq = dsp.LSQ{}
	return &c
}

// WithSync returns a fork of the decoder re-anchored to a different
// synchronization (e.g. one whose frequency estimate was refined by the
// re-encoding tracker), keeping the trained equalizer.
func (d *SymbolDecoder) WithSync(s Sync) *SymbolDecoder {
	c := d.Fork()
	c.sync = s
	amp := cmplx.Abs(s.H)
	c.invAmp = 1.0
	if amp > 0 {
		c.invAmp = 1 / amp
	}
	return c
}

// fillRaw computes raw symbols sym0, sym0+1, … into raw using the
// polyphase engine: all chips of the range are interpolated with one
// phase FIR (the fractional part of Start+m is constant over the
// packet), derotated by one anchored tone multiply instead of a
// cmplx.Exp per chip, normalized, and matched-filtered: raw[i] is the
// mean of symbol sym0+i's chips, each interpolated at Start+chip,
// derotated by Theta and divided by |Ĥ|.
func (d *SymbolDecoder) fillRaw(rx []complex128, sym0 int, raw []complex128) {
	sps := d.cfg.SamplesPerSymbol
	nchips := len(raw) * sps
	d.chipBuf = dsp.Ensure(d.chipBuf, nchips)
	pos0 := d.sync.Start + float64(sym0*sps)
	chips := d.rs.EvalGrid(d.chipBuf, rx, pos0, nchips)
	d.chipBuf = chips
	ia := complex(d.invAmp, 0)
	den := float64(sps)
	// Derotate the whole chip span in one anchored tone multiply, then
	// matched-filter; within the kern tolerance of the per-chip
	// reference (rawSymbol in the package tests).
	kern.MulTone(chips, -d.sync.Theta(pos0), -d.sync.Freq)
	ci := 0
	for i := range raw {
		var acc complex128
		for j := 0; j < sps; j++ {
			acc += chips[ci] * ia
			ci++
		}
		// Bit-identical to acc / complex(den, 0) — see dsp.DivPosReal.
		raw[i] = dsp.DivPosReal(acc, den)
	}
}

// TrainEqualizer fits the symbol-spaced equalizer by least squares so
// that filtered raw symbols match the known symbols starting at symbol
// index at. It needs at least 2·EqTaps+1 known symbols; the 32-symbol
// preamble is ample. A failed fit leaves the pass-through equalizer.
func (d *SymbolDecoder) TrainEqualizer(rx []complex128, known []complex128, at int) error {
	if d.cfg.DisableEqualizer {
		return nil
	}
	t := d.cfg.EqTaps
	m := 2*t + 1
	if len(known) < m+2 {
		return fmt.Errorf("phy: %d known symbols insufficient to train %d taps", len(known), m)
	}
	// Raw observations of symbols [at−t, at+len(known)+t): the system's
	// row k, which targets known[k], is EstimateFIR row n = k+t over
	// x = raw, reading raw[n−l] for l ∈ [−t, t].
	d.trainRaw = dsp.Ensure(d.trainRaw, len(known)+2*t)
	raw := d.trainRaw
	d.fillRaw(rx, at-t, raw)
	d.trainY = dsp.Ensure(d.trainY, len(raw))
	copy(d.trainY[t:], known)
	fit, err := d.lsq.EstimateFIR(raw, d.trainY, t, t+len(known), t)
	if err != nil {
		return err
	}
	taps := fit.Taps
	// Validate the fit against the known symbols: a training sequence
	// drowned in residual interference produces a wild equalizer that is
	// far worse than the pass-through fallback. Accept the taps only if
	// the post-fit error is a small fraction of the symbol energy.
	var mse float64
	for k := range known {
		var z complex128
		for l := -t; l <= t; l++ {
			z += taps[l+t] * raw[k-l+t]
		}
		e := z - known[k]
		mse += real(e)*real(e) + imag(e)*imag(e)
	}
	mse /= float64(len(known))
	if mse > 0.5 {
		return fmt.Errorf("phy: equalizer fit rejected (mse %.3f)", mse)
	}
	// taps are the solver's scratch; copy them into the decoder-owned
	// backing before the next training call reuses the arena.
	d.eqBuf = append(d.eqBuf[:0], taps...)
	d.eq = d.eqBuf
	return nil
}

// equalizeAt applies the trained equalizer around symbol k. raw holds
// cached raw symbols with raw[i] = symbol base+i.
func (d *SymbolDecoder) equalizeAt(raw []complex128, base, k int) complex128 {
	if d.eq == nil {
		return raw[k-base]
	}
	t := d.cfg.EqTaps
	var z complex128
	for l := -t; l <= t; l++ {
		z += d.eq[l+t] * raw[k-l-base]
	}
	return z
}

// DecodeRange decodes symbols [from, to) of the packet from rx. If
// reverse is true the range is processed from to−1 down to from, which is
// how the backward pass of §4.3b consumes chunks. It returns the hard
// decisions (constellation points) and the soft (equalized,
// phase-corrected) observations, both indexed so that index i corresponds
// to symbol from+i regardless of direction.
//
// The returned slices are the decoder's reusable scratch: they stay
// valid until the next DecodeRange call on this decoder
// (forks have independent scratch) and must be copied by callers that
// retain them longer.
func (d *SymbolDecoder) DecodeRange(rx []complex128, from, to int, reverse bool) (decisions, soft []complex128) {
	n := to - from
	if n <= 0 {
		return nil, nil
	}
	// Cache raw symbols for the range plus the equalizer skirt.
	d.rawBuf = dsp.Ensure(d.rawBuf, n+2*d.cfg.EqTaps)
	d.fillRaw(rx, from-d.cfg.EqTaps, d.rawBuf)
	return d.decodeRaw(d.rawBuf, from, to, reverse)
}

// decodeRaw is DecodeRange past the raw-symbol cache: raw holds symbols
// [from−EqTaps, to+EqTaps), which it equalizes, phase-corrects and
// slices.
func (d *SymbolDecoder) decodeRaw(raw []complex128, from, to int, reverse bool) (decisions, soft []complex128) {
	n := to - from
	d.decBuf = dsp.Ensure(d.decBuf, n)
	d.softBuf = dsp.Ensure(d.softBuf, n)
	decisions, soft = d.decBuf, d.softBuf
	base := from - d.cfg.EqTaps
	idx := func(step int) int {
		if reverse {
			return to - 1 - step
		}
		return from + step
	}
	// The correction phasor e^{−j·phase} advances by the loop increment
	// through SincosSmall (the PLL step is tiny in steady state) and
	// re-anchors from the exactly tracked phase every AnchorBlock
	// symbols, like every other recurrence kernel. It stays within
	// ≤1e-9 of a fresh Sincos of the phase per symbol, the package
	// tests' oracle.
	sn, cs := math.Sincos(-d.phase)
	anchor := 0
	for s := 0; s < n; s++ {
		k := idx(s)
		z := d.equalizeAt(raw, base, k)
		z *= complex(cs, sn)
		dec := modem.Slice(d.scheme, z)
		soft[k-from] = z
		decisions[k-from] = dec
		if !d.cfg.DisablePhaseTracking {
			err := phaseError(z, dec)
			d.freqAdj += d.cfg.PLLFreqGain * err
			dphi := d.cfg.PLLGain*err + d.freqAdj
			d.phase = dsp.WrapPhase(d.phase + dphi)
			if anchor++; anchor == kern.AnchorBlock {
				sn, cs = math.Sincos(-d.phase)
				anchor = 0
			} else {
				ds, dc := kern.SincosSmall(-dphi)
				cs, sn = cs*dc-sn*ds, cs*ds+sn*dc
			}
		}
	}
	return decisions, soft
}

// phaseError measures the wrapped angle between an observation and its
// decision, clamped to ±π/4 so a single bad decision cannot slam the
// loop.
func phaseError(z, dec complex128) float64 {
	if dec == 0 || z == 0 {
		return 0
	}
	return clampedPhase(z * cmplx.Conj(dec))
}

// clampedPhase is the phase of w clamped to ±π/4, bit-identical to
// clamping math.Atan2's result but without its special-case checks
// where they cannot fire. For real part x > 0 and |y| < x atan2 is
// atan(y/x), which lies within ±π/4 (atan(1) rounds to π/4). Where the
// clamp binds it returns Copysign(π/4, y) without any atan: for x > 0,
// |y| ≥ x means atan(|y|/x) ≥ atan(1); for x ≤ 0 atan2 lies beyond
// ±π/2 with the sign of y, except when y/x underflows to +0 with y < 0,
// where atan2 returns +π. That case, NaN and w = 0 take atan2.
func clampedPhase(w complex128) float64 {
	const lim = math.Pi / 4
	x, y := real(w), imag(w)
	if x > 0 {
		if math.Abs(y) < x {
			return math.Atan(y / x)
		}
		if !math.IsNaN(y) {
			return math.Copysign(lim, y)
		}
	} else if x <= 0 && w != 0 && !math.IsNaN(y) && (y >= 0 || y/x != 0) {
		return math.Copysign(lim, y)
	}
	e := math.Atan2(y, x)
	if e > lim {
		e = lim
	} else if e < -lim {
		e = -lim
	}
	return e
}

// PLLState exposes the loop state for diagnostics and tests.
func (d *SymbolDecoder) PLLState() (phase, freqAdj float64) { return d.phase, d.freqAdj }
