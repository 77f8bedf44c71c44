package fft

import (
	"math"
	"math/rand"
	"testing"
)

// forwardScrambledGo is forwardScrambled composed of the Go stage
// kernels only: the oracle the production stages (SSE2 on amd64, the
// same Go kernels elsewhere) must match bit for bit.
func forwardScrambledGo(p *Plan, x []complex128) {
	n := p.n
	nGen := len(p.tw)
	if p.fuse8 {
		nGen--
	}
	for si := 0; si < nGen; si++ {
		fwdStage4Go(x, n, n>>(2*si), p.tw[si])
	}
	if p.fuse8 {
		fwd8Go(x)
		return
	}
	switch n >> (2 * len(p.tw)) {
	case 4:
		fwd4(x)
	case 2:
		fwd2(x)
	}
}

// inverseScrambledProductGo is inverseScrambledProduct composed of the
// Go stage kernels only.
func inverseScrambledProductGo(p *Plan, dst, src, spec []complex128) {
	n := p.n
	first := len(p.tw) - 1
	if p.fuse8 {
		inv8MulGo(dst, src, spec)
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
		invStage4Go(dst, n, n>>(2*si), p.tw[si])
	}
}

// stageSpecials are the edge values the stage kernels must carry
// through exactly: signed zeros, subnormals, huge finite values,
// infinities and NaN.
var stageSpecials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 0x1p-1030,
	1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// stageInput fills x from r, lane by lane, with the mix that class
// bytes select: below 0x80 a unit normal, then one entry of
// stageSpecials each, and above those any float64 bit pattern (NaN
// payloads, subnormals and infinities included). No class bytes means
// all unit normals.
func stageInput(x []complex128, r *rand.Rand, class []byte) {
	lane := func(i int) float64 {
		if len(class) == 0 {
			return r.NormFloat64()
		}
		b := int(class[i%len(class)])
		switch {
		case b < 0x80:
			return r.NormFloat64()
		case b < 0x80+len(stageSpecials):
			return stageSpecials[b-0x80]
		default:
			return math.Float64frombits(r.Uint64())
		}
	}
	for i := range x {
		x[i] = complex(lane(2*i), lane(2*i+1))
	}
}

// sameStageBits reports whether a and b carry the same float64 bits in
// both parts, any NaN matching any NaN: the SIMD lanes may propagate a
// different NaN payload than the scalar code, and nothing else.
func sameStageBits(a, b complex128) bool {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
	}
	return same(real(a), real(b)) && same(imag(a), imag(b))
}

func requireSameStageBits(t *testing.T, what string, n int, got, want []complex128) {
	t.Helper()
	for i := range want {
		if !sameStageBits(got[i], want[i]) {
			t.Fatalf("n=%d %s: slot %d = %v (%#x, %#x), Go stages give %v (%#x, %#x)", n, what, i,
				got[i], math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])),
				want[i], math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
		}
	}
}

// FuzzStageKernels runs forwardScrambled and inverseScrambledProduct
// through the production stages — the SSE2 kernels on amd64 — and
// requires every output bit to equal the Go stage kernels', any NaN
// matching any NaN; the inverse runs both out of place and in place
// (dst == src). Sizes cover every power of two from 2 to 65,536, so
// both terminal-stage parities occur. On builds without the assembly
// the target compares the Go kernels with themselves.
func FuzzStageKernels(f *testing.F) {
	classes := [][]byte{
		nil,                                  // unit normals
		{0x80, 0x81},                         // signed zeros
		{0x00, 0x80, 0x81, 0x82, 0x83, 0x84}, // zeros and subnormals among normals
		{0x85, 0x86, 0x87, 0x88, 0x00, 0x00}, // huge values
		{0x00, 0x89, 0x00, 0x8a, 0x00, 0x8b}, // ±Inf and NaN
		{0xff, 0x00, 0x00, 0x00},             // arbitrary bit patterns
	}
	for shift := 0; shift < 16; shift++ {
		for k, c := range classes {
			f.Add(uint8(shift), int64(100*shift+k), c)
		}
	}
	f.Fuzz(func(t *testing.T, shift uint8, seed int64, class []byte) {
		n := 2 << (shift % 16)
		p := PlanFor(n)
		r := rand.New(rand.NewSource(seed))
		x := make([]complex128, n)
		spec := make([]complex128, n)
		stageInput(x, r, class)
		stageInput(spec, r, class)

		got := append([]complex128(nil), x...)
		want := append([]complex128(nil), x...)
		p.forwardScrambled(got)
		forwardScrambledGo(p, want)
		requireSameStageBits(t, "forwardScrambled", n, got, want)

		want = make([]complex128, n)
		inverseScrambledProductGo(p, want, x, spec)
		got = make([]complex128, n)
		p.inverseScrambledProduct(got, x, spec)
		requireSameStageBits(t, "inverseScrambledProduct", n, got, want)
		got = append(got[:0], x...)
		p.inverseScrambledProduct(got, got, spec)
		requireSameStageBits(t, "in-place inverseScrambledProduct", n, got, want)
	})
}
