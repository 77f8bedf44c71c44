// Package fft is the frequency-domain correlation engine behind the
// detection stack: an iterative in-place radix-2 complex FFT with
// cached twiddle plans, and an overlap-save cross-correlation that
// reproduces dsp.CorrelateProfile — the paper's collision-detector
// kernel (§4.2.1) and its full-data-width variant (§4.2.2) — in
// O(N log N) instead of O(N·M).
//
// The frequency-offset pre-rotation of the reference (the paper's
// Γ'(Δ)) is folded into the conjugated reference block before it is
// transformed, so compensation costs nothing per output sample. All
// per-call working storage lives in a Scratch that callers thread
// through their detection loops (phy.Synchronizer, core.Receiver); a
// per-plan-size pool backs callers that do not, so steady-state
// detection allocates nothing either way.
//
// Correlate dispatches between this engine and the naive kernel by a
// size heuristic; see its documentation.
package fft

import (
	"math"
	"math/bits"
	"sync"
)

// Plan holds the cached twiddle factors and bit-reversal permutation
// for one transform size. Plans are immutable after construction and
// shared across goroutines via PlanFor.
//
// Twiddles for the generic (size ≥ 8) radix-2 stages are stored per
// stage in natural butterfly order — stageF[s][j] = e^{−2πij/size} for
// size = 8<<s — so the butterfly loop walks them contiguously instead
// of striding through one shared table (the stride pattern was the
// dominant cost for the small plans the preamble detector uses).
//
// The correlation engine additionally keeps fused stage-pair tables
// (r4F/r4I): the scrambled-order convolution transforms process two
// radix-2 stages at a time, which halves the memory passes and trims
// the twiddle multiplies — the butterflies are still the radix-2
// decimation, executed two levels per sweep. r4F[s] holds the triple
// (ω^j, ω^{2j}, ω^{3j}), ω = e^{−2πi/size}, flattened as tw[3j..3j+2]
// for j ≥ 1 (the j = 0 butterfly is twiddle-free and peeled), for the
// descending stage sizes n, n/4, n/16, … ≥ 8.
type Plan struct {
	n      int
	stageF [][]complex128 // forward twiddles per generic radix-2 stage
	stageI [][]complex128 // inverse (conjugated) twiddles per generic radix-2 stage
	r4F    [][]complex128 // forward fused-pair twiddle triples per stage
	r4I    [][]complex128 // inverse fused-pair twiddle triples per stage
	fuse8  bool           // terminal size-8+size-2 stages run as one fused sweep
	perm   []int32        // bit-reversal permutation
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
	for size := 8; size <= n; size <<= 1 {
		half := size >> 1
		f := make([]complex128, half)
		inv := make([]complex128, half)
		for j := 0; j < half; j++ {
			s, c := math.Sincos(-2 * math.Pi * float64(j) / float64(size))
			f[j] = complex(c, s)
			inv[j] = complex(c, -s)
		}
		p.stageF = append(p.stageF, f)
		p.stageI = append(p.stageI, inv)
	}
	for size := n; size >= 8; size >>= 2 {
		q := size >> 2
		f := make([]complex128, 3*q)
		inv := make([]complex128, 3*q)
		for j := 0; j < q; j++ {
			for r := 1; r <= 3; r++ {
				s, c := math.Sincos(-2 * math.Pi * float64(j) * float64(r) / float64(size))
				f[3*j+r-1] = complex(c, s)
				inv[3*j+r-1] = complex(c, -s)
			}
		}
		p.r4F = append(p.r4F, f)
		p.r4I = append(p.r4I, inv)
	}
	p.fuse8 = len(p.r4F) > 0 && n>>(2*len(p.r4F)) == 2
	p.perm = make([]int32, n)
	j := 0
	for i := 0; i < n; i++ {
		p.perm[i] = int32(j)
		bit := n >> 1
		for ; bit > 0 && j&bit != 0; bit >>= 1 {
			j &^= bit
		}
		j |= bit
	}
	return p
}

// Size returns the transform size of the plan.
func (p *Plan) Size() int { return p.n }

// NextPow2 returns the smallest power of two ≥ n (1 for n ≤ 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Forward transforms x in place to its DFT in natural order:
// X[j] = Σ_k x[k]·e^{−2πijk/n}. len(x) must equal the plan size.
func (p *Plan) Forward(x []complex128) {
	p.check(x)
	p.permute(x)
	dit(x, p.n, p.stageF, -1)
}

// Inverse transforms a natural-order spectrum in place back to samples,
// including the 1/n scaling.
func (p *Plan) Inverse(x []complex128) {
	p.check(x)
	p.permute(x)
	dit(x, p.n, p.stageI, 1)
	inv := complex(1/float64(p.n), 0)
	for i := range x {
		x[i] *= inv
	}
}

// forwardScrambled transforms natural-order samples to a scrambled-order
// spectrum: decimation in frequency with two radix-2 levels fused per
// sweep, no permutation pass. Used by the convolution path, where the
// spectrum order cancels out — the pointwise product of two identically
// scrambled spectra feeds inverseScrambledProduct directly, and an
// elementwise product commutes with any shared permutation.
func (p *Plan) forwardScrambled(x []complex128) {
	n := p.n
	nGen := len(p.r4F)
	if p.fuse8 {
		nGen-- // the size-8 stage runs fused with the size-2 remainder
	}
	for si := 0; si < nGen; si++ {
		fwdStage4(x, n, n>>(2*si), p.r4F[si])
	}
	if p.fuse8 {
		fwd8(x)
		return
	}
	switch n >> (2 * len(p.r4F)) {
	case 4:
		fwd4(x)
	case 2:
		fwd2(x)
	}
}

// inverseScrambledProduct computes the inverse transform of the
// elementwise product x ⊙ spec, where both are scrambled-order spectra
// from forwardScrambled, writing natural-order samples into x. The
// product is fused into the first butterfly sweep, and the 1/n scaling
// is NOT applied — the correlator folds it into spec once per call.
func (p *Plan) inverseScrambledProduct(x, spec []complex128) {
	n := p.n
	first := len(p.r4I) - 1
	if p.fuse8 {
		inv8Mul(x, spec) // product + size-2 + size-8 in one sweep
		first--
	} else {
		switch n >> (2 * len(p.r4I)) {
		case 4:
			inv4Mul(x, spec)
		case 2:
			inv2Mul(x, spec)
		case 1:
			if n == 1 {
				x[0] *= spec[0]
			}
		}
	}
	for si := first; si >= 0; si-- {
		invStage4(x, n, n>>(2*si), p.r4I[si])
	}
}

func (p *Plan) check(x []complex128) {
	if len(x) != p.n {
		panic("fft: input length does not match plan size")
	}
}

func (p *Plan) permute(x []complex128) {
	for i, pj := range p.perm {
		if j := int(pj); i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
}

// dit runs decimation-in-time butterflies: bit-reversed input, natural
// output. The size-2 and size-4 stages have twiddles 1 and ±i and are
// peeled off without multiplies (sign is −1 forward, +1 inverse);
// stages holds contiguous per-stage twiddles for sizes 8, 16, ….
func dit(x []complex128, n int, stages [][]complex128, sign float64) {
	if n < 2 {
		return
	}
	for i := 0; i < n; i += 2 {
		a, b := x[i], x[i+1]
		x[i], x[i+1] = a+b, a-b
	}
	if n < 4 {
		return
	}
	for i := 0; i < n; i += 4 {
		a, b := x[i], x[i+2]
		x[i], x[i+2] = a+b, a-b
		c, d := x[i+1], x[i+3]
		d = complex(-sign*imag(d), sign*real(d)) // d·(±i)
		x[i+1], x[i+3] = c+d, c-d
	}
	for si, ws := range stages {
		size := 8 << si
		half := size >> 1
		for start := 0; start < n; start += size {
			u := x[start : start+half : start+half]
			v := x[start+half : start+size]
			v = v[:len(u)]
			ws := ws[:len(u)]
			for j := range u {
				t := v[j] * ws[j]
				v[j] = u[j] - t
				u[j] += t
			}
		}
	}
}

// fwdStage4 runs one fused pair of forward radix-2 decimation levels on
// blocks of `size`: each quarter-strided 4-tuple is combined with
// ω_4 = −i and the results twiddled by (ω^j, ω^{2j}, ω^{3j}) from tw.
// The j = 0 butterfly has unit twiddles and is peeled.
func fwdStage4(x []complex128, n, size int, tw []complex128) {
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
			a0, a1, a2, a3 := x0[j], x1[j], x2[j], x3[j]
			u0, u1 := a0+a2, a1+a3
			u2, u3 := a0-a2, a1-a3
			iu3 := complex(imag(u3), -real(u3))
			x0[j] = u0 + u1
			x1[j] = (u2 + iu3) * tw[3*j]
			x2[j] = (u0 - u1) * tw[3*j+1]
			x3[j] = (u2 - iu3) * tw[3*j+2]
		}
	}
}

// invStage4 is the inverse counterpart of fwdStage4: twiddle-multiply
// first (tw already conjugated), then combine with ω_4 = +i.
func invStage4(x []complex128, n, size int, tw []complex128) {
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
			t0 := x0[j]
			t1 := x1[j] * tw[3*j]
			t2 := x2[j] * tw[3*j+1]
			t3 := x3[j] * tw[3*j+2]
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
// elementwise spectrum product fused in.
func inv4Mul(x, spec []complex128) {
	for i := 0; i+3 < len(x) && i+3 < len(spec); i += 4 {
		t0 := x[i] * spec[i]
		t1 := x[i+1] * spec[i+1]
		t2 := x[i+2] * spec[i+2]
		t3 := x[i+3] * spec[i+3]
		v0, v1 := t0+t2, t1+t3
		v2 := t0 - t2
		d := t1 - t3
		v3 := complex(-imag(d), real(d))
		x[i], x[i+1], x[i+2], x[i+3] = v0+v1, v2+v3, v0-v1, v2-v3
	}
}

// inv2Mul is the first inverse stage on pairs with the spectrum product
// fused in.
func inv2Mul(x, spec []complex128) {
	for i := 0; i+1 < len(x) && i+1 < len(spec); i += 2 {
		a, b := x[i]*spec[i], x[i+1]*spec[i+1]
		x[i], x[i+1] = a+b, a-b
	}
}

// rt2 is 1/√2, the magnitude of the odd ω₈ twiddles hardcoded in the
// fused 8-point kernels.
const rt2 = 0.7071067811865476

// fwd8 runs the terminal size-8 and size-2 forward stages as one
// register-resident sweep per 8-block (reached when log₂n is odd). The
// ω₈ twiddles (1−i)/√2, −i, −(1+i)/√2 are applied with two real
// multiplies each instead of a general complex multiply.
func fwd8(x []complex128) {
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

// inv8Mul is the inverse counterpart of fwd8 with the spectrum product
// fused in: product, size-2 stage, and the size-8 stage (conjugated ω₈
// twiddles) in one sweep per 8-block.
func inv8Mul(x, spec []complex128) {
	for i := 0; i+7 < len(x) && i+7 < len(spec); i += 8 {
		p0, p1 := x[i]*spec[i], x[i+1]*spec[i+1]
		p2, p3 := x[i+2]*spec[i+2], x[i+3]*spec[i+3]
		p4, p5 := x[i+4]*spec[i+4], x[i+5]*spec[i+5]
		p6, p7 := x[i+6]*spec[i+6], x[i+7]*spec[i+7]
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
