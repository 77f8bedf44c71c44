// Package fft is the frequency-domain correlation engine behind the
// detection stack: an iterative in-place radix-2 complex FFT with
// cached twiddle plans, and an overlap-save cross-correlation that
// reproduces dsp.CorrelateProfile — the paper's collision-detector
// kernel (§4.2.1) and its full-data-width variant (§4.2.2) — in
// O(N log N) instead of O(N·M).
//
// The engine comes in two halves. Blocks holds the forward transforms
// of one buffer's overlap-save blocks, and Reference holds a reference
// waveform's spectra, with the frequency-offset pre-rotation (the
// paper's Γ'(Δ)) folded in so compensation costs nothing per output
// sample. A receiver that searches one reception for several
// references, or one reference in several receptions, transforms each
// side once (phy.Synchronizer, core.Receiver). The one-shot Correlate
// loads both halves afresh on every call; its working storage lives in
// a Scratch the caller threads through, or in a pooled one, so
// steady-state correlation allocates nothing either way.
//
// Blocks.Correlate dispatches between this engine and the naive kernel
// by a size heuristic; see the crossover constants. On amd64 the
// transforms' stage kernels run as SSE2 assembly, bit-identical to
// their Go forms (stage_amd64.s).
package fft

import (
	"math"
	"math/bits"
	"sync"
)

// Plan holds the cached twiddle tables for one transform size. Plans
// are immutable after construction and shared across goroutines via
// PlanFor.
//
// The correlation engine's scrambled-order transforms process two
// radix-2 decimation levels per sweep, which halves the memory passes
// and trims the twiddle multiplies — the butterflies are still the
// radix-2 decimation, executed two levels per sweep. tw[s] holds the
// twiddle triple (ω^j, ω^{2j}, ω^{3j}), ω = e^{−2πi/size}, of each
// butterfly j of the fused stage of size n>>(2s) (descending sizes n,
// n/4, n/16, … ≥ 8), packed for the SIMD stage kernels: each twiddle
// w = c + id is stored as the lane pairs (c, c) and (−d, d), twelve
// float64 per butterfly at tw[s][12j:]. The complex product w·v is then
// (c, c)·v + (−d, d)·swap(v), the same two products added in each lane
// as the scalar (a·c − b·d, a·d + b·c); the inverse sweep multiplies by
// the conjugate, (c, c)·v − (−d, d)·swap(v), from the same table. The
// j = 0 butterfly is twiddle-free and peeled; its slot keeps the
// indexing flat.
type Plan struct {
	n     int
	tw    [][]float64 // packed twiddle triples per fused stage
	fuse8 bool        // terminal size-8+size-2 stages run as one fused sweep
}

var planCache sync.Map // int → *Plan

// PlanFor returns the shared plan for transform size n, which must be a
// power of two ≥ 1. Plans are built once and cached for the life of the
// process.
func PlanFor(n int) *Plan {
	if n <= 0 || n&(n-1) != 0 {
		panic("fft: transform size must be a power of two")
	}
	if p, ok := planCache.Load(n); ok {
		return p.(*Plan)
	}
	p, _ := planCache.LoadOrStore(n, newPlan(n))
	return p.(*Plan)
}

func newPlan(n int) *Plan {
	p := &Plan{n: n}
	for size := n; size >= 8; size >>= 2 {
		q := size >> 2
		tw := make([]float64, 12*q)
		for j := 0; j < q; j++ {
			for r := 1; r <= 3; r++ {
				s, c := math.Sincos(-2 * math.Pi * float64(j) * float64(r) / float64(size))
				w := tw[12*j+4*(r-1) : 12*j+4*r]
				w[0], w[1], w[2], w[3] = c, c, -s, s
			}
		}
		p.tw = append(p.tw, tw)
	}
	p.fuse8 = len(p.tw) > 0 && n>>(2*len(p.tw)) == 2
	return p
}

// errLength is the panic of a transform handed a buffer whose length is
// not the plan size; the assembly stage kernels rely on the check.
const errLength = "fft: buffer length does not match plan size"

// NextPow2 returns the smallest power of two ≥ n (1 for n ≤ 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// forwardScrambled transforms natural-order samples to a scrambled-order
// spectrum: decimation in frequency with two radix-2 levels fused per
// sweep, no permutation pass. Used by the convolution path, where the
// spectrum order cancels out — the pointwise product of two identically
// scrambled spectra feeds inverseScrambledProduct directly, and an
// elementwise product commutes with any shared permutation.
func (p *Plan) forwardScrambled(x []complex128) {
	n := p.n
	if len(x) != n {
		panic(errLength)
	}
	nGen := len(p.tw)
	if p.fuse8 {
		nGen-- // the size-8 stage runs fused with the size-2 remainder
	}
	for si := 0; si < nGen; si++ {
		fwdStage4(x, n, n>>(2*si), p.tw[si])
	}
	if p.fuse8 {
		fwd8(x)
		return
	}
	switch n >> (2 * len(p.tw)) {
	case 4:
		fwd4(x)
	case 2:
		fwd2(x)
	}
}

// inverseScrambledProduct computes the inverse transform of the
// elementwise product src ⊙ spec, where both are scrambled-order
// spectra from forwardScrambled, writing natural-order samples into dst
// (dst may be src). The product is fused into the first butterfly
// sweep, which reads src and writes dst, so a stored block spectrum
// survives its product. The 1/n scaling is NOT applied — the reference
// spectrum carries it.
func (p *Plan) inverseScrambledProduct(dst, src, spec []complex128) {
	n := p.n
	if len(dst) != n || len(src) != n || len(spec) != n {
		panic(errLength)
	}
	first := len(p.tw) - 1
	if p.fuse8 {
		inv8Mul(dst, src, spec) // product + size-2 + size-8 in one sweep
		first--
	} else {
		switch n >> (2 * len(p.tw)) {
		case 4:
			inv4Mul(dst, src, spec)
		case 2:
			inv2Mul(dst, src, spec)
		case 1:
			if n == 1 {
				dst[0] = src[0] * spec[0]
			}
		}
	}
	for si := first; si >= 0; si-- {
		invStage4(dst, n, n>>(2*si), p.tw[si])
	}
}

// The four stage kernels below — fwdStage4Go, invStage4Go, fwd8Go and
// inv8MulGo — are the portable forms of fwdStage4, invStage4, fwd8 and
// inv8Mul. On amd64 those run as SSE2 assembly (stage_amd64.s) that
// performs, in every lane, the same IEEE operations in the same order
// as these expressions, so its outputs are bit-identical to theirs;
// builds without the assembly (other architectures, or the purego tag)
// run these directly (stage_noasm.go), and the tests compare the two.

// fwdStage4Go runs one fused pair of forward radix-2 decimation levels
// on blocks of `size`: each quarter-strided 4-tuple is combined with
// ω_4 = −i and the results twiddled by (ω^j, ω^{2j}, ω^{3j}) from the
// packed table tw (see Plan). The j = 0 butterfly has unit twiddles and
// is peeled.
func fwdStage4Go(x []complex128, n, size int, tw []float64) {
	q := size >> 2
	for start := 0; start < n; start += size {
		x0 := x[start : start+q : start+q]
		x1 := x[start+q : start+2*q : start+2*q]
		x2 := x[start+2*q : start+3*q : start+3*q]
		x3 := x[start+3*q : start+size]
		x3 = x3[:q]
		a0, a1, a2, a3 := x0[0], x1[0], x2[0], x3[0]
		u0, u1 := a0+a2, a1+a3
		u2, u3 := a0-a2, a1-a3
		iu3 := complex(imag(u3), -real(u3)) // −i·u3
		x0[0], x1[0] = u0+u1, u2+iu3
		x2[0], x3[0] = u0-u1, u2-iu3
		for j := 1; j < q; j++ {
			w := tw[12*j : 12*j+12 : 12*j+12]
			a0, a1, a2, a3 := x0[j], x1[j], x2[j], x3[j]
			u0, u1 := a0+a2, a1+a3
			u2, u3 := a0-a2, a1-a3
			iu3 := complex(imag(u3), -real(u3))
			x0[j] = u0 + u1
			x1[j] = (u2 + iu3) * complex(w[0], w[3])
			x2[j] = (u0 - u1) * complex(w[4], w[7])
			x3[j] = (u2 - iu3) * complex(w[8], w[11])
		}
	}
}

// invStage4Go is the inverse counterpart of fwdStage4Go:
// twiddle-multiply first by the conjugated twiddles (c − id, read from
// the same packed table), then combine with ω_4 = +i.
func invStage4Go(x []complex128, n, size int, tw []float64) {
	q := size >> 2
	for start := 0; start < n; start += size {
		x0 := x[start : start+q : start+q]
		x1 := x[start+q : start+2*q : start+2*q]
		x2 := x[start+2*q : start+3*q : start+3*q]
		x3 := x[start+3*q : start+size]
		x3 = x3[:q]
		t0, t1, t2, t3 := x0[0], x1[0], x2[0], x3[0]
		v0, v1 := t0+t2, t1+t3
		v2 := t0 - t2
		d := t1 - t3
		v3 := complex(-imag(d), real(d)) // +i·(t1−t3)
		x0[0], x1[0] = v0+v1, v2+v3
		x2[0], x3[0] = v0-v1, v2-v3
		for j := 1; j < q; j++ {
			w := tw[12*j : 12*j+12 : 12*j+12]
			t0 := x0[j]
			t1 := x1[j] * complex(w[0], w[2])
			t2 := x2[j] * complex(w[4], w[6])
			t3 := x3[j] * complex(w[8], w[10])
			v0, v1 := t0+t2, t1+t3
			v2 := t0 - t2
			d := t1 - t3
			v3 := complex(-imag(d), real(d))
			x0[j] = v0 + v1
			x1[j] = v2 + v3
			x2[j] = v0 - v1
			x3[j] = v2 - v3
		}
	}
}

// fwd4 is the twiddle-free terminal forward stage on contiguous
// 4-blocks (reached when log₂n is even).
func fwd4(x []complex128) {
	for i := 0; i+3 < len(x); i += 4 {
		a0, a1, a2, a3 := x[i], x[i+1], x[i+2], x[i+3]
		u0, u1 := a0+a2, a1+a3
		u2, u3 := a0-a2, a1-a3
		iu3 := complex(imag(u3), -real(u3))
		x[i], x[i+1], x[i+2], x[i+3] = u0+u1, u2+iu3, u0-u1, u2-iu3
	}
}

// fwd2 is the twiddle-free terminal forward stage on pairs (reached
// when log₂n is odd).
func fwd2(x []complex128) {
	for i := 0; i+1 < len(x); i += 2 {
		a, b := x[i], x[i+1]
		x[i], x[i+1] = a+b, a-b
	}
}

// inv4Mul is the first inverse stage on contiguous 4-blocks with the
// elementwise spectrum product fused in: it reads src and writes x.
func inv4Mul(x, src, spec []complex128) {
	src, spec = src[:len(x)], spec[:len(x)]
	for i := 0; i+3 < len(x); i += 4 {
		t0 := src[i] * spec[i]
		t1 := src[i+1] * spec[i+1]
		t2 := src[i+2] * spec[i+2]
		t3 := src[i+3] * spec[i+3]
		v0, v1 := t0+t2, t1+t3
		v2 := t0 - t2
		d := t1 - t3
		v3 := complex(-imag(d), real(d))
		x[i], x[i+1], x[i+2], x[i+3] = v0+v1, v2+v3, v0-v1, v2-v3
	}
}

// inv2Mul is the first inverse stage on pairs with the spectrum product
// fused in: it reads src and writes x.
func inv2Mul(x, src, spec []complex128) {
	src, spec = src[:len(x)], spec[:len(x)]
	for i := 0; i+1 < len(x); i += 2 {
		a, b := src[i]*spec[i], src[i+1]*spec[i+1]
		x[i], x[i+1] = a+b, a-b
	}
}

// rt2 is 1/√2, the magnitude of the odd ω₈ twiddles hardcoded in the
// fused 8-point kernels.
const rt2 = 0.7071067811865476

// fwd8Go runs the terminal size-8 and size-2 forward stages as one
// register-resident sweep per 8-block (reached when log₂n is odd). The
// ω₈ twiddles (1−i)/√2, −i, −(1+i)/√2 are applied with two real
// multiplies each instead of a general complex multiply.
func fwd8Go(x []complex128) {
	for i := 0; i+7 < len(x); i += 8 {
		a0, a1, a2, a3 := x[i], x[i+2], x[i+4], x[i+6]
		u0, u1 := a0+a2, a1+a3
		u2, u3 := a0-a2, a1-a3
		iu3 := complex(imag(u3), -real(u3))
		s0, s1 := u0+u1, u2+iu3
		s2, s3 := u0-u1, u2-iu3
		b0, b1, b2, b3 := x[i+1], x[i+3], x[i+5], x[i+7]
		v0, v1 := b0+b2, b1+b3
		v2, v3 := b0-b2, b1-b3
		iv3 := complex(imag(v3), -real(v3))
		t0 := v0 + v1
		t1 := v2 + iv3
		t1 = complex((real(t1)+imag(t1))*rt2, (imag(t1)-real(t1))*rt2) // ·(1−i)/√2
		t2 := v0 - v1
		t2 = complex(imag(t2), -real(t2)) // ·(−i)
		t3 := v2 - iv3
		t3 = complex((imag(t3)-real(t3))*rt2, -(real(t3)+imag(t3))*rt2) // ·(−1−i)/√2
		x[i], x[i+1] = s0+t0, s0-t0
		x[i+2], x[i+3] = s1+t1, s1-t1
		x[i+4], x[i+5] = s2+t2, s2-t2
		x[i+6], x[i+7] = s3+t3, s3-t3
	}
}

// inv8MulGo is the inverse counterpart of fwd8Go with the spectrum
// product fused in: product, size-2 stage, and the size-8 stage
// (conjugated ω₈ twiddles) in one sweep per 8-block, reading src and
// writing x.
func inv8MulGo(x, src, spec []complex128) {
	src, spec = src[:len(x)], spec[:len(x)]
	for i := 0; i+7 < len(x); i += 8 {
		p0, p1 := src[i]*spec[i], src[i+1]*spec[i+1]
		p2, p3 := src[i+2]*spec[i+2], src[i+3]*spec[i+3]
		p4, p5 := src[i+4]*spec[i+4], src[i+5]*spec[i+5]
		p6, p7 := src[i+6]*spec[i+6], src[i+7]*spec[i+7]
		s0, t0 := p0+p1, p0-p1
		s1, t1 := p2+p3, p2-p3
		s2, t2 := p4+p5, p4-p5
		s3, t3 := p6+p7, p6-p7
		v0, v1 := s0+s2, s1+s3
		v2 := s0 - s2
		d := s1 - s3
		v3 := complex(-imag(d), real(d))
		x[i], x[i+2] = v0+v1, v2+v3
		x[i+4], x[i+6] = v0-v1, v2-v3
		w1 := complex((real(t1)-imag(t1))*rt2, (real(t1)+imag(t1))*rt2)  // ·(1+i)/√2
		w2 := complex(-imag(t2), real(t2))                               // ·(+i)
		w3 := complex(-(real(t3)+imag(t3))*rt2, (real(t3)-imag(t3))*rt2) // ·(−1+i)/√2
		v0, v1 = t0+w2, w1+w3
		v2 = t0 - w2
		d = w1 - w3
		v3 = complex(-imag(d), real(d))
		x[i+1], x[i+3] = v0+v1, v2+v3
		x[i+5], x[i+7] = v0-v1, v2-v3
	}
}
