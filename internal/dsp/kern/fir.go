package kern

// This file holds the packed FIR kernels every resampler and FIR output
// runs on, in the channel renderer and the decoder alike: the fixed
// eight-coefficient real-tap pass behind polyphase grid evaluation
// (dsp.Resampler, zero-drift resampling included) and the short
// complex-tap convolution behind dsp.FIR (the multipath filter, the
// fitted ISI image filter). Outputs whose windows reach past a signal's
// end run on a zero-padded copy of those windows. Both kernels
// reproduce their scalar references bit for bit — each output
// accumulates its taps in the exact scalar order, packed only across
// the independent real/imaginary lanes and across independent outputs
// — and the fuzz suite pins the equivalence exactly.

// FIRReal8 writes dst[i] = Σ_{j<8} coef[j]·x[i+j] with the sequential
// j-order accumulation of the scalar reference. x must hold at least
// len(dst)+7 samples; dst must not alias x.
func FIRReal8(dst, x []complex128, coef []float64) {
	n := len(dst)
	if n == 0 {
		return
	}
	c := coef[:8]
	_ = x[n+6]
	i := 0
	if haveFIRAsm {
		if q := n &^ 3; q > 0 {
			fir8Asm(&dst[0], &x[0], q, &c[0])
			i = q
		}
	}
	for ; i < n; i++ {
		dst[i] = Dot8(x[i:], c)
	}
}

// Dot8 returns Σ_{j<8} coef[j]·w[j]: one output of FIRReal8, with the
// same sequential j-order accumulation, straight-line.
func Dot8(w []complex128, coef []float64) complex128 {
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

// FIRCplx writes dst[i] = Σ_{k<L} taps[k]·x[i+L−1−k] — a complex-tap
// convolution over windows that lie in x, each walked
// highest-sample-first exactly as dsp.FIR's generic loop orders it. x
// must hold at least len(dst)+L−1 samples; dst must not alias x. It
// reports false (leaving dst untouched) when no packed kernel covers
// the tap count, so the caller can run its generic loop instead.
func FIRCplx(dst, x []complex128, taps []complex128) bool {
	l := len(taps)
	if !haveFIRAsm || l < 1 || l > 8 || len(dst) < 4 {
		return false
	}
	n := len(dst)
	_ = x[n+l-2]
	// Per tap: the duplicated real part and the (−imag, +imag) pair, so
	// term = trp·v + tip·swap(v) lands on the scalar's
	// (tr·vr − ti·vi, tr·vi + ti·vr) with identical rounding (the re
	// lane's a + (−b) is bitwise a − b).
	var pb [32]float64
	for k, t := range taps {
		pb[4*k+0] = real(t)
		pb[4*k+1] = real(t)
		pb[4*k+2] = -imag(t)
		pb[4*k+3] = imag(t)
	}
	q := n &^ 3
	if q > 0 {
		firCplxAsm(&dst[0], &x[0], q, &pb[0], l)
	}
	for i := q; i < n; i++ {
		base := i + l - 1
		var re, im float64
		for k, t := range taps {
			v := x[base-k]
			re += real(t)*real(v) - imag(t)*imag(v)
			im += real(t)*imag(v) + imag(t)*real(v)
		}
		dst[i] = complex(re, im)
	}
	return true
}
