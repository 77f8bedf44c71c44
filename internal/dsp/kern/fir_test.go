package kern

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// refFIRReal8 is the scalar reference FIRReal8 promises bit-identity
// with: per output, the eight coefficients accumulated in j order.
func refFIRReal8(dst, x []complex128, coef []float64) {
	c := coef[:8]
	for i := range dst {
		w := x[i : i+8 : i+8]
		var re, im float64
		for j, cj := range c {
			re += cj * real(w[j])
			im += cj * imag(w[j])
		}
		dst[i] = complex(re, im)
	}
}

// refFIRCplx is the scalar reference FIRCplx promises bit-identity
// with: dsp.FIR's generic interior loop, window walked
// highest-sample-first, taps accumulated in k order.
func refFIRCplx(dst, x []complex128, taps []complex128) {
	l := len(taps)
	for i := range dst {
		base := i + l - 1
		var re, im float64
		for k, t := range taps {
			v := x[base-k]
			re += real(t)*real(v) - imag(t)*imag(v)
			im += real(t)*imag(v) + imag(t)*real(v)
		}
		dst[i] = complex(re, im)
	}
}

func randCplx(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

func TestFIRReal8BitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	// Lengths cover every asm quad remainder (n mod 4) plus the
	// asm-skipped short cases.
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 15, 64, 257, 1000} {
		x := randCplx(rng, n+7)
		coef := make([]float64, 8)
		for j := range coef {
			coef[j] = rng.NormFloat64()
		}
		got := make([]complex128, n)
		want := make([]complex128, n)
		FIRReal8(got, x, coef)
		refFIRReal8(want, x, coef)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d output %d: got %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFIRCplxBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for l := 1; l <= 8; l++ {
		for _, n := range []int{4, 5, 6, 7, 8, 33, 256, 999} {
			x := randCplx(rng, n+l-1)
			taps := randCplx(rng, l)
			got := make([]complex128, n)
			want := make([]complex128, n)
			if !FIRCplx(got, x, taps) {
				if haveFIRAsm {
					t.Fatalf("l=%d n=%d: packed kernel refused a covered shape", l, n)
				}
				continue
			}
			refFIRCplx(want, x, taps)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("l=%d n=%d output %d: got %v, want %v", l, n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestFIRCplxRefusesUncovered(t *testing.T) {
	x := make([]complex128, 16)
	dst := make([]complex128, 4)
	if FIRCplx(dst, x, make([]complex128, 9)) {
		t.Fatal("accepted 9 taps")
	}
	if FIRCplx(dst, x, nil) {
		t.Fatal("accepted 0 taps")
	}
	if FIRCplx(dst[:3], x, make([]complex128, 3)) {
		t.Fatal("accepted a 3-output span (below the packed minimum)")
	}
}

func TestMulTone(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, n := range []int{1, 2, 3, AnchorBlock - 1, AnchorBlock, AnchorBlock + 1, 3*AnchorBlock + 7} {
		for _, step := range []float64{0, 1e-6, -0.004, 0.3} {
			phase := (rng.Float64() - 0.5) * 50
			buf := randCplx(rng, n)
			want := make([]complex128, n)
			var scale float64
			for i, v := range buf {
				want[i] = v * cmplx.Exp(complex(0, phase+float64(i)*step))
				if a := cmplx.Abs(v); a > scale {
					scale = a
				}
			}
			MulTone(buf, phase, step)
			for i := range buf {
				if d := cmplx.Abs(buf[i] - want[i]); d > 1e-9*scale {
					t.Fatalf("n=%d step=%g: sample %d off by %g", n, step, i, d)
				}
			}
		}
	}
}

func FuzzFIRReal8(f *testing.F) {
	f.Add(int64(1), 256)
	f.Add(int64(2), 3)
	f.Add(int64(3), 4)
	f.Add(int64(4), 1023)
	f.Fuzz(func(t *testing.T, seed int64, n int) {
		n = clampInt(n, 1, 4096)
		rng := rand.New(rand.NewSource(seed))
		x := randCplx(rng, n+7)
		coef := make([]float64, 8)
		for j := range coef {
			coef[j] = rng.NormFloat64()
		}
		got := make([]complex128, n)
		want := make([]complex128, n)
		FIRReal8(got, x, coef)
		refFIRReal8(want, x, coef)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed=%d n=%d output %d: got %v, want %v", seed, n, i, got[i], want[i])
			}
		}
	})
}

func FuzzFIRCplx(f *testing.F) {
	f.Add(int64(1), 7, 256)
	f.Add(int64(2), 1, 4)
	f.Add(int64(3), 8, 101)
	f.Add(int64(4), 3, 4096)
	f.Fuzz(func(t *testing.T, seed int64, l, n int) {
		l = clampInt(l, 1, 8)
		n = clampInt(n, 4, 4096)
		rng := rand.New(rand.NewSource(seed))
		x := randCplx(rng, n+l-1)
		taps := randCplx(rng, l)
		got := make([]complex128, n)
		want := make([]complex128, n)
		if !FIRCplx(got, x, taps) {
			t.Skip("no packed kernel on this build")
		}
		refFIRCplx(want, x, taps)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed=%d l=%d n=%d output %d: got %v, want %v", seed, l, n, i, got[i], want[i])
			}
		}
	})
}

// toneSpecials are the lane values FuzzMulTone mixes into its samples,
// picked by class bytes 0x80 and up: signed zeros, subnormals, the
// extremes, infinities and NaN.
var toneSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.225073858507201e-308,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
}

// sameToneBits reports whether a and b carry the same float64 bits in
// both parts, any NaN matching any NaN: packed lanes may propagate a
// different NaN payload than scalar code, and nothing else.
func sameToneBits(a, b complex128) bool {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
	}
	return same(real(a), real(b)) && same(imag(a), imag(b))
}

// FuzzMulTone requires MulTone — the SSE2 kernel on amd64 — to carry
// the Go loop's bits in every output (any NaN matching any NaN), for
// any phase, step, length and sample lanes, special values included,
// and, on finite unit-scale input, to stay within 1e-9 of the per-sample
// cmplx.Exp ramp. Class bytes below 0x80 draw a normal lane, 0x80 and
// up a toneSpecials entry, and past those arbitrary bits.
func FuzzMulTone(f *testing.F) {
	f.Add(int64(1), 0.5, -0.004, 300, []byte(nil))
	f.Add(int64(2), -20.0, 1e-7, AnchorBlock+1, []byte(nil))
	f.Add(int64(3), 0.0, 0.0, 1, []byte(nil))
	f.Add(int64(4), 3.0, 0.2, 4*AnchorBlock, []byte(nil))
	classes := [][]byte{
		{0x80, 0x81},                         // signed zeros
		{0x00, 0x82, 0x83, 0x84, 0x00},       // subnormals among normals
		{0x85, 0x86, 0x00, 0x00},             // the extremes
		{0x00, 0x87, 0x00, 0x88, 0x00, 0x89}, // ±Inf and NaN
		{0xff, 0x00, 0x00},                   // arbitrary bits
	}
	for k, n := range []int{2, 3, AnchorBlock - 1, AnchorBlock, AnchorBlock + 1, 2*AnchorBlock + 3} {
		f.Add(int64(10+k), 1.5, 0.01, n, classes[k%len(classes)])
	}
	f.Add(int64(20), math.Inf(1), 0.01, 7, []byte(nil))
	f.Add(int64(21), 0.3, math.NaN(), 9, []byte(nil))
	f.Add(int64(22), 1e300, -1e300, AnchorBlock+5, []byte(nil))
	f.Fuzz(func(t *testing.T, seed int64, phase, step float64, n int, class []byte) {
		n = clampInt(n, 1, 8192)
		rng := rand.New(rand.NewSource(seed))
		lane := func(i int) float64 {
			if len(class) == 0 {
				return rng.NormFloat64()
			}
			switch b := int(class[i%len(class)]); {
			case b < 0x80:
				return rng.NormFloat64()
			case b < 0x80+len(toneSpecials):
				return toneSpecials[b-0x80]
			default:
				return math.Float64frombits(rng.Uint64())
			}
		}
		buf := make([]complex128, n)
		for i := range buf {
			buf[i] = complex(lane(2*i), lane(2*i+1))
		}
		want := append([]complex128(nil), buf...)
		mulTone(want, phase, step, false)
		got := append([]complex128(nil), buf...)
		MulTone(got, phase, step)
		for i := range want {
			if !sameToneBits(got[i], want[i]) {
				t.Fatalf("seed=%d n=%d phase=%g step=%g: sample %d = %v (%#x, %#x), Go loop gives %v (%#x, %#x)",
					seed, n, phase, step, i, got[i], math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])),
					want[i], math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
			}
		}
		if len(class) > 0 || math.IsNaN(phase) || math.IsNaN(step) ||
			math.Abs(phase) > 1e6 || math.Abs(step) > math.Pi {
			return
		}
		var scale float64
		for _, v := range buf {
			if a := cmplx.Abs(v); a > scale {
				scale = a
			}
		}
		for i, v := range buf {
			w := v * cmplx.Exp(complex(0, phase+float64(i)*step))
			if d := cmplx.Abs(got[i] - w); d > 1e-9*scale {
				t.Fatalf("seed=%d n=%d phase=%g step=%g: sample %d off by %g", seed, n, phase, step, i, d)
			}
		}
	})
}
