package kern

// This file holds the packed FIR kernels the decoder-side hot paths run
// on: the fixed eight-coefficient real-tap pass behind polyphase grid
// evaluation and the short complex-tap convolution behind the fitted
// ISI image filter. Both reproduce their scalar references bit for bit
// — each output accumulates its taps in the exact scalar order, packed
// only across the independent real/imaginary lanes and across
// independent outputs — and the fuzz suite pins the equivalence
// exactly.

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
		w := x[i : i+8 : i+8]
		var re, im float64
		for j, cj := range c {
			re += cj * real(w[j])
			im += cj * imag(w[j])
		}
		dst[i] = complex(re, im)
	}
}

// FIRCplx writes dst[i] = Σ_{k<L} taps[k]·x[i+L−1−k] — the fully
// supported interior of a complex-tap convolution, window walked
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
