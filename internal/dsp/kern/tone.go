package kern

import "math"

// MulTone multiplies buf[m] by e^{j(phase + m·step)} for m ∈ [0,
// len(buf)) — the constant-frequency counterpart of RotateQuad, used to
// apply a linear phase ramp (carrier offset, tracker model) to a whole
// block. Two phasor chains anchored one sample apart advance by 2·step
// each, so the serial complex-multiply latency of a single recurrence
// overlaps across samples; both chains re-anchor from math.Sincos every
// AnchorBlock samples, which keeps the result within the package's
// ≤1e-9 tolerance of the per-sample cmplx.Exp (or dsp.Rotator)
// reference for any ramp length. Under amd64 && !purego the chains run
// as SSE2 assembly, bit-identical to the Go loop (mulToneGo).
func MulTone(buf []complex128, phase, step float64) { mulTone(buf, phase, step, haveMulToneAsm) }

// mulTone is MulTone on the SSE2 block kernel when asm is set, else on
// the Go loop: the form other builds run, and the oracle the fuzz
// target holds the assembly to.
func mulTone(buf []complex128, phase, step float64, asm bool) {
	n := len(buf)
	s2, c2 := math.Sincos(2 * step)
	for b0 := 0; b0 < n; b0 += AnchorBlock {
		b1 := b0 + AnchorBlock
		if b1 > n {
			b1 = n
		}
		s0, c0 := math.Sincos(phase + float64(b0)*step)
		s1, c1 := math.Sincos(phase + float64(b0+1)*step)
		blk := buf[b0:b1]
		if !asm {
			mulToneGo(blk, c0, s0, c1, s1, c2, s2)
			continue
		}
		// The assembly takes the pairs; the odd tail sample takes chain
		// a where the assembly left it.
		st := [6]float64{c0, c1, s0, s1, c2, s2}
		if np := len(blk) / 2; np > 0 {
			mulTonePairsAsm(&blk[0], np, &st)
		}
		if len(blk)&1 == 1 {
			blk[len(blk)-1] = mulPhasor(blk[len(blk)-1], st[0], st[2])
		}
	}
}

// mulToneGo multiplies one anchored block by two phasor chains, a on
// the even samples and b on the odd ones, each advanced by (c2, s2) =
// e^{j·2·step} per pair.
func mulToneGo(buf []complex128, aR, aI, bR, bI, c2, s2 float64) {
	i := 0
	for ; i+1 < len(buf); i += 2 {
		buf[i] = mulPhasor(buf[i], aR, aI)
		buf[i+1] = mulPhasor(buf[i+1], bR, bI)
		aR, aI = float64(aR*c2)-float64(aI*s2), float64(aR*s2)+float64(aI*c2)
		bR, bI = float64(bR*c2)-float64(bI*s2), float64(bR*s2)+float64(bI*c2)
	}
	if i < len(buf) {
		buf[i] = mulPhasor(buf[i], aR, aI)
	}
}

// mulPhasor returns v·(pR + j·pI). The explicit conversions round each
// product on its own, so no GOAMD64 level or architecture fuses them
// into a multiply-add: every build computes what the SSE2 lanes do.
func mulPhasor(v complex128, pR, pI float64) complex128 {
	return complex(float64(real(v)*pR)-float64(imag(v)*pI), float64(real(v)*pI)+float64(imag(v)*pR))
}
