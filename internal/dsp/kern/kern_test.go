package kern

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// refAccum is the scalar reference for Accum: direct closed-form
// evaluation of every oscillator at every sample.
func refAccum(re, im []float64, amp, phase, step []float64) {
	for i := range re {
		for k := range amp {
			s, c := math.Sincos(phase[k] + float64(i)*step[k])
			re[i] += amp[k] * c
			im[i] += amp[k] * s
		}
	}
}

func randBank(rng *rand.Rand, p int) (amp, phase, step []float64) {
	amp = make([]float64, p)
	phase = make([]float64, p)
	step = make([]float64, p)
	for k := 0; k < p; k++ {
		amp[k] = 0.1 + rng.Float64()
		phase[k] = (rng.Float64() - 0.5) * 200
		step[k] = (rng.Float64() - 0.5) * 0.2
	}
	return
}

func TestAccumMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Cover every lane-remainder path (p mod 4) and lengths straddling
	// the anchor cadence.
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8, 16, 17} {
		for _, n := range []int{1, 2, 3, AnchorBlock - 1, AnchorBlock, AnchorBlock + 1, 3*AnchorBlock + 5} {
			amp, phase, step := randBank(rng, p)
			re := make([]float64, n)
			im := make([]float64, n)
			Accum(re, im, amp, phase, step)
			wre := make([]float64, n)
			wim := make([]float64, n)
			refAccum(wre, wim, amp, phase, step)
			var scale float64
			for k := range amp {
				scale += amp[k]
			}
			for i := 0; i < n; i++ {
				if d := math.Abs(re[i]-wre[i]) + math.Abs(im[i]-wim[i]); d > 1e-9*scale {
					t.Fatalf("p=%d n=%d: sample %d off by %g (scale %g)", p, n, i, d, scale)
				}
			}
		}
	}
}

func TestAccumAccumulates(t *testing.T) {
	// Accum must add into the planes, not overwrite them.
	re := []float64{1, 1, 1, 1}
	im := []float64{2, 2, 2, 2}
	Accum(re, im, []float64{1}, []float64{0}, []float64{0})
	for i := range re {
		if re[i] != 2 || math.Abs(im[i]-2) > 1e-15 {
			t.Fatalf("sample %d: got (%g, %g), want (2, 2)", i, re[i], im[i])
		}
	}
}

func TestMulPlanes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 300
	buf := make([]complex128, n)
	want := make([]complex128, n)
	re := make([]float64, n)
	im := make([]float64, n)
	cr, ci := 0.3, -0.7
	for i := range buf {
		buf[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		re[i], im[i] = rng.NormFloat64(), rng.NormFloat64()
		want[i] = buf[i] * complex(re[i]+cr, im[i]+ci)
	}
	MulPlanes(buf, re, im, cr, ci)
	for i := range buf {
		if cmplx.Abs(buf[i]-want[i]) > 1e-12 {
			t.Fatalf("sample %d: got %v want %v", i, buf[i], want[i])
		}
	}
}

func TestMulPlanesHeld(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, blk := range []int{1, 3, 64, 100} {
		n := 257
		m := (n + blk - 1) / blk
		buf := make([]complex128, n)
		want := make([]complex128, n)
		re := make([]float64, m)
		im := make([]float64, m)
		for j := range re {
			re[j], im[j] = rng.NormFloat64(), rng.NormFloat64()
		}
		for i := range buf {
			buf[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			want[i] = buf[i] * complex(re[i/blk]+0.5, im[i/blk]-0.25)
		}
		MulPlanesHeld(buf, re, im, 0.5, -0.25, blk)
		for i := range buf {
			if cmplx.Abs(buf[i]-want[i]) > 1e-12 {
				t.Fatalf("blk=%d sample %d: got %v want %v", blk, i, buf[i], want[i])
			}
		}
	}
}

func TestAccMulDelayed(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 128
	src := make([]complex128, n)
	re := make([]float64, n)
	im := make([]float64, n)
	for i := range src {
		src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		re[i], im[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	for _, delay := range []int{0, 1, 2, 5, n - 1, n} {
		dst := make([]complex128, n)
		want := make([]complex128, n)
		for i := range dst {
			dst[i] = complex(float64(i), -float64(i))
			want[i] = dst[i]
			if i >= delay {
				want[i] += complex(re[i], im[i]) * src[i-delay]
			}
		}
		AccMulDelayed(dst, src, re, im, delay)
		for i := range dst {
			if cmplx.Abs(dst[i]-want[i]) > 1e-12 {
				t.Fatalf("delay=%d sample %d: got %v want %v", delay, i, dst[i], want[i])
			}
		}
	}
}

// refMulTaps is the formulation MulTaps promises bit-identity with: a
// zeroed output accumulated tap by tap through AccMulDelayed.
func refMulTaps(buf []complex128, re, im []float64, taps int) {
	n := len(buf)
	in := append([]complex128(nil), buf...)
	for i := range buf {
		buf[i] = 0
	}
	for k := 0; k < taps; k++ {
		AccMulDelayed(buf, in, re[k*n:(k+1)*n], im[k*n:(k+1)*n], k)
	}
}

func TestMulTapsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, taps := range []int{1, 2, 3, 4} {
		for _, n := range []int{0, 1, 2, 3, 4, 7, 128, 1023} {
			a := make([]complex128, n)
			b := make([]complex128, n)
			re := make([]float64, taps*n)
			im := make([]float64, taps*n)
			for i := range a {
				a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				b[i] = a[i]
			}
			for i := range re {
				re[i], im[i] = rng.NormFloat64(), rng.NormFloat64()
			}
			MulTaps(a, re, im, taps)
			refMulTaps(b, re, im, taps)
			for i := range a {
				if !sameBits(a[i], b[i]) {
					t.Fatalf("taps=%d n=%d sample %d: fused %v != reference %v (must be bit-identical)", taps, n, i, a[i], b[i])
				}
			}
		}
	}
}

func TestRotateQuad(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, withWalk := range []bool{false, true} {
		n := 2*AnchorBlock + 37
		buf := make([]complex128, n)
		orig := make([]complex128, n)
		var deltas []float64
		if withWalk {
			deltas = make([]float64, n)
			for i := range deltas {
				deltas[i] = 0.01 * rng.NormFloat64()
			}
			// Exercise the large-angle fallback too.
			deltas[5] = 0.8
			deltas[700] = -1.2
		}
		for i := range buf {
			buf[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = buf[i]
		}
		rate := 3e-6
		RotateQuad(buf, rate, deltas)
		var walk float64
		for i := range buf {
			want := orig[i] * cmplx.Exp(complex(0, rate*float64(i)*float64(i)/2+walk))
			if withWalk {
				walk += deltas[i]
			}
			if cmplx.Abs(buf[i]-want) > 1e-9 {
				t.Fatalf("walk=%v sample %d: got %v want %v (|d|=%g)", withWalk, i, buf[i], want, cmplx.Abs(buf[i]-want))
			}
		}
	}
}

func TestRotateQuadNoop(t *testing.T) {
	buf := []complex128{1 + 2i, -3i, 0.5}
	want := append([]complex128(nil), buf...)
	RotateQuad(buf, 0, nil)
	for i := range buf {
		if buf[i] != want[i] {
			t.Fatalf("rate=0 must be a bit-exact no-op, sample %d changed", i)
		}
	}
}

func TestAddTone(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := AnchorBlock + 99
	buf := make([]complex128, n)
	want := make([]complex128, n)
	amp, phase, step := 0.8, 2.1, 0.3
	for i := range buf {
		buf[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		want[i] = buf[i] + complex(amp, 0)*cmplx.Exp(complex(0, phase+float64(i)*step))
	}
	AddTone(buf, amp, phase, step)
	for i := range buf {
		if cmplx.Abs(buf[i]-want[i]) > 1e-9 {
			t.Fatalf("sample %d: got %v want %v", i, buf[i], want[i])
		}
	}
}

// refClipQuant is the scalar ADC reference: the exact branchy
// clamp-and-round the naive front-end path performs.
func refClipQuant(buf []complex128, fs, levels float64) {
	rail := func(x float64) float64 {
		if x > fs {
			x = fs
		} else if x < -fs {
			x = -fs
		}
		return math.Round(x/fs*levels) / levels * fs
	}
	for i := range buf {
		buf[i] = complex(rail(real(buf[i])), rail(imag(buf[i])))
	}
}

func TestClipQuantBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 4096
	a := make([]complex128, n)
	b := make([]complex128, n)
	for i := range a {
		a[i] = complex(6*rng.NormFloat64(), 6*rng.NormFloat64())
		b[i] = a[i]
	}
	// Edge values, both rails.
	a[0], a[1], a[2], a[3] = complex(4, -4), complex(4.0000001, -50), complex(-0.0, 0.0), complex(math.Inf(1), math.Inf(-1))
	a[4] = complex(math.NaN(), 2.5)
	// Small negatives quantize to −0 (math.Round keeps the sign) and the
	// largest double below one half must round down, not up — both pin
	// the packed round stage's sign and residual handling.
	a[5] = complex(-1e-9, 0.49999999999999994*4/127)
	for i := 0; i < 6; i++ {
		b[i] = a[i]
	}
	ClipQuant(a, 4.0, 127)
	refClipQuant(b, 4.0, 127)
	for i := range a {
		if !sameBits(a[i], b[i]) {
			t.Fatalf("sample %d: kernel %v != reference %v (must be bit-identical)", i, a[i], b[i])
		}
	}
	// Exact half ties, both signs: levels = 128 makes (k+½)·fs/128 exact,
	// so the scaled rail lands on k+0.5 and must round away from zero.
	ties := make([]complex128, 64)
	ref := make([]complex128, 64)
	for i := range ties {
		k := float64(i)
		ties[i] = complex((k+0.5)*4/128, -(k+0.5)*4/128)
		ref[i] = ties[i]
	}
	ClipQuant(ties, 4.0, 128)
	refClipQuant(ref, 4.0, 128)
	for i := range ties {
		if !sameBits(ties[i], ref[i]) {
			t.Fatalf("tie %d: kernel %v != reference %v (must be bit-identical)", i, ties[i], ref[i])
		}
	}
}

// sameBits compares both rails bit-for-bit, treating NaN as equal to
// NaN (the kernel must propagate NaN exactly like the reference).
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

func TestSincosSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 20000; i++ {
		d := rng.NormFloat64() * 0.02
		if i%50 == 0 {
			d = rng.NormFloat64() * 3 // force the fallback branch too
		}
		s, c := sincosSmall(d)
		ws, wc := math.Sincos(d)
		if math.Abs(s-ws) > 3e-16 || math.Abs(c-wc) > 3e-16 {
			t.Fatalf("d=%g: sincosSmall=(%g,%g) want (%g,%g)", d, s, c, ws, wc)
		}
	}
}
