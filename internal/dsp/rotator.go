package dsp

import "math/cmplx"

// Rotator generates the progressive carrier rotation e^{j(φ₀ + n·step)}
// incrementally: one complex multiply per sample instead of a cmplx.Exp
// call, with the accumulated product renormalized to unit magnitude
// every 1024 steps so arbitrarily long ramps do not drift in amplitude.
// ConjRotatedRef and CorrelateAt share the recurrence and its
// renormalization cadence, so the naive correlator and the FFT
// overlap-save engine pre-rotate their references bit for bit alike.
// Rotate and the re-encoder's image ramp (§4.2.4b) run on the kern
// tone kernel instead, which agrees with this recurrence to ≤1e-9 of
// the signal scale.
type Rotator struct {
	cur, inc complex128
	n        int
}

// NewRotator returns a rotator positioned at phase phase0 advancing by
// step radians per sample.
func NewRotator(phase0, step float64) Rotator {
	return Rotator{
		cur: cmplx.Exp(complex(0, phase0)),
		inc: cmplx.Exp(complex(0, step)),
	}
}

// Next returns e^{j(φ₀ + n·step)} for the current sample n and advances
// the rotator.
func (r *Rotator) Next() complex128 {
	v := r.cur
	r.cur *= r.inc
	if r.n&0x3ff == 0x3ff {
		// DivPosReal performs the builtin division's exact operations for
		// a positive real divisor, so the renorm stays bit-identical.
		r.cur = DivPosReal(r.cur, cmplx.Abs(r.cur))
	}
	r.n++
	return v
}
