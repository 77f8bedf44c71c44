package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// TestKernelMatchesSincHann pins the closed-form phase FIR against
// direct sincHann evaluation: the polyphase engine must reproduce the
// naive kernel's coefficients to ≤1e−12 for any fractional offset.
func TestKernelMatchesSincHann(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for _, taps := range []int{2, 3, 4, 6, 8} {
		pp := PolyphaseFor(taps)
		if pp.Taps() != taps {
			t.Fatalf("taps=%d: bank reports %d", taps, pp.Taps())
		}
		var coef []float64
		for trial := 0; trial < 500; trial++ {
			mu := r.Float64()
			if mu == 0 {
				continue
			}
			coef = pp.Kernel(coef, mu)
			for j, got := range coef {
				want := sincHann(mu+float64(taps-1-j), float64(taps))
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("taps=%d mu=%v tap %d: closed form %v, direct %v (Δ=%g)",
						taps, mu, j, got, want, math.Abs(got-want))
				}
			}
		}
	}
}

// TestPolyphaseForSharedAndDefault checks the bank cache and the
// default-taps fallback.
func TestPolyphaseForSharedAndDefault(t *testing.T) {
	if PolyphaseFor(4) != PolyphaseFor(4) {
		t.Fatal("banks of equal support must be shared")
	}
	if PolyphaseFor(0).Taps() != DefaultSincTaps {
		t.Fatalf("taps=0 must fall back to DefaultSincTaps, got %d", PolyphaseFor(0).Taps())
	}
}

// checkAgainstAt compares every output of got against per-sample
// Interpolator.At evaluation at the same positions; a NaN on either
// side fails.
func checkAgainstAt(t *testing.T, ip Interpolator, x, got []complex128, pos func(int) float64, tol float64, ctx string) {
	t.Helper()
	for i := range got {
		want := ip.At(x, pos(i))
		if e := absC(got[i] - want); !(e <= tol) {
			t.Fatalf("%s: output %d (pos %v): polyphase %v, direct %v (Δ=%g)",
				ctx, i, pos(i), got[i], want, e)
		}
	}
}

// TestEvalGridMatchesDirect is the seeded fuzz pinning the tentpole
// agreement bound: grid evaluation through the polyphase engine must
// match direct per-sample sincHann interpolation to ≤1e−12, across
// random signals, anchors (including out-of-range and integer-valued
// ones), and support sizes.
func TestEvalGridMatchesDirect(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	var rs Resampler
	for trial := 0; trial < 300; trial++ {
		taps := 2 + r.Intn(7)
		ln := 16 + r.Intn(500)
		x := make([]complex128, ln)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		pos0 := (r.Float64() - 0.5) * float64(ln+40)
		if trial%7 == 0 {
			pos0 = math.Floor(pos0) // exercise the integer-grid copy path
		}
		n := 1 + r.Intn(ln+30)
		rs.Interp = Interpolator{Taps: taps}
		got := rs.EvalGrid(nil, x, pos0, n)
		checkAgainstAt(t, rs.Interp, x, got, func(i int) float64 { return pos0 + float64(i) }, 1e-12, "EvalGrid")
	}
}

// TestEvalDriftMatchesDirect fuzzes the drifting-offset path the same
// way: per-sample closed-form phases must match direct evaluation to
// ≤1e−12 even as μ wraps across sample boundaries.
func TestEvalDriftMatchesDirect(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	var rs Resampler
	for trial := 0; trial < 200; trial++ {
		taps := 2 + r.Intn(7)
		ln := 16 + r.Intn(400)
		x := make([]complex128, ln)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		mu0 := (r.Float64() - 0.5) * 4
		drift := (r.Float64() - 0.5) * 4e-3
		rs.Interp = Interpolator{Taps: taps}
		got := rs.EvalDrift(nil, x, mu0, drift)
		checkAgainstAt(t, rs.Interp, x, got,
			func(i int) float64 { return float64(i) + mu0 + float64(i)*drift }, 1e-12, "EvalDrift")
	}
}

// FuzzEvalGridMatchesDirect is the native-fuzz form of the agreement
// pin, so `go test -fuzz` can hunt for anchor/length corner cases
// beyond the seeded sweep.
func FuzzEvalGridMatchesDirect(f *testing.F) {
	f.Add(int64(1), 0.37, 64, 4)
	f.Add(int64(2), -12.5, 31, 8)
	f.Add(int64(3), 200.0, 16, 2)
	f.Add(int64(4), -1e-300, 40, 4)
	f.Fuzz(func(t *testing.T, seed int64, pos0 float64, ln, taps int) {
		if ln < 1 || ln > 2048 || taps < 1 || taps > 16 ||
			math.IsNaN(pos0) || math.Abs(pos0) > 1e6 {
			t.Skip()
		}
		r := rand.New(rand.NewSource(seed))
		x := make([]complex128, ln)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		rs := Resampler{Interp: Interpolator{Taps: taps}}
		got := rs.EvalGrid(nil, x, pos0, ln)
		checkAgainstAt(t, rs.Interp, x, got, func(i int) float64 { return pos0 + float64(i) }, 1e-12, "fuzz")
	})
}

// TestShiftPathsAgree pins Shift and ShiftDrift, through the public
// API, against per-sample Interpolator.At evaluation.
func TestShiftPathsAgree(t *testing.T) {
	x := bandlimited(300, 83)
	ip := Interpolator{Taps: 5}
	checkAgainstAt(t, ip, x, ip.Shift(nil, x, 0.41),
		func(i int) float64 { return float64(i) + 0.41 }, 1e-12, "Shift")
	checkAgainstAt(t, ip, x, ip.ShiftDrift(nil, x, -0.3, 7e-4),
		func(i int) float64 { return float64(i) - 0.3 + float64(i)*7e-4 }, 1e-12, "ShiftDrift")
	// Offsets less than 2^−54 below zero, whose pos − ⌊pos⌋ rounds to 1.
	for _, mu := range []float64{-1e-300, -5e-324, -0x1p-54, -0x1p-55} {
		checkAgainstAt(t, ip, x, ip.Shift(nil, x, mu),
			func(i int) float64 { return float64(i) + mu }, 1e-12, fmt.Sprintf("Shift(%v)", mu))
		checkAgainstAt(t, ip, x, ip.ShiftDrift(nil, x, mu, 0),
			func(i int) float64 { return float64(i) + mu }, 1e-12, fmt.Sprintf("ShiftDrift(%v, 0)", mu))
	}
}

// TestRotatorMatchesExp checks the recurrence against per-sample
// cmplx.Exp over several renormalization periods, and Rotate against
// the same closed form.
func TestRotatorMatchesExp(t *testing.T) {
	const phase0, step = 0.7, -0.0043
	rot := NewRotator(phase0, step)
	for n := 0; n < 5000; n++ {
		want := cmplx.Exp(complex(0, phase0+float64(n)*step))
		if e := absC(rot.Next() - want); e > 1e-12 {
			t.Fatalf("rotator drifted at step %d: Δ=%g", n, e)
		}
	}
	x := make([]complex128, 3000)
	for i := range x {
		x[i] = complex(1, 0)
	}
	// Rotate runs on kern.MulTone, pinned to the closed form within the
	// kernel layer's 1e-9 tolerance.
	got := Rotate(nil, x, phase0, step)
	for i := range got {
		want := cmplx.Exp(complex(0, phase0+float64(i)*step))
		if e := absC(got[i] - want); e > 1e-9 {
			t.Fatalf("Rotate drifted from closed form at %d: Δ=%g", i, e)
		}
	}
}

// dotKernel is the full-support inner product Σ_j coef[j]·w[j] the
// oracles evaluate interior outputs with, accumulating in j order.
func dotKernel(w []complex128, coef []float64) complex128 {
	w = w[:len(coef)]
	var re, im float64
	for j, c := range coef {
		v := w[j]
		re += c * real(v)
		im += c * imag(v)
	}
	return complex(re, im)
}

// dotKernelClipped is dotKernel at a window starting at w0 that may
// extend past x's bounds; out-of-range samples read zero. It is the
// per-tap-checked form the clipped outputs of EvalGrid and EvalDrift
// ran before they moved onto zero-padded windows.
func dotKernelClipped(x []complex128, w0 int, coef []float64) complex128 {
	var re, im float64
	for j, c := range coef {
		k := w0 + j
		if k < 0 || k >= len(x) {
			continue
		}
		v := x[k]
		re += c * real(v)
		im += c * imag(v)
	}
	return complex(re, im)
}

// evalGridRef is EvalGrid with every output evaluated on its own: one
// phase FIR for the grid, dotKernel where the window lies in x and
// dotKernelClipped where it does not. Positions split as in EvalGrid;
// TestShiftPathsAgree pins that split against Interpolator.At.
func evalGridRef(ip Interpolator, x []complex128, pos0 float64, n int) []complex128 {
	dst := make([]complex128, n)
	base0, mu := splitPos(pos0)
	t := ip.taps()
	var coef []float64
	if mu != 0 {
		coef = PolyphaseFor(t).Kernel(nil, mu)
	}
	for i := range dst {
		base := base0 + i
		if mu == 0 {
			if base >= 0 && base < len(x) {
				dst[i] = x[base]
			}
			continue
		}
		if w0 := base - t + 1; w0 >= 0 && w0+2*t <= len(x) {
			dst[i] = dotKernel(x[w0:], coef)
		} else {
			dst[i] = dotKernelClipped(x, w0, coef)
		}
	}
	return dst
}

// evalDriftRef is the per-sample EvalDrift: every output floors its own
// position and takes the phase FIR of its own fractional part, whatever
// the drift.
func evalDriftRef(ip Interpolator, x []complex128, mu0, drift float64) []complex128 {
	dst := make([]complex128, len(x))
	t := ip.taps()
	pp := PolyphaseFor(t)
	coef := make([]float64, 2*t)
	for n := range dst {
		base, mu := splitPos(float64(n) + mu0 + float64(n)*drift)
		if mu == 0 {
			if base >= 0 && base < len(x) {
				dst[n] = x[base]
			}
			continue
		}
		pp.Kernel(coef, mu)
		if w0 := base - t + 1; w0 >= 0 && w0+2*t <= len(x) {
			dst[n] = dotKernel(x[w0:], coef)
		} else {
			dst[n] = dotKernelClipped(x, w0, coef)
		}
	}
	return dst
}

// sameBits reports whether a and b agree in every bit of both parts.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// requireSameBits fails at the first output whose bits differ from the
// oracle's.
func requireSameBits(t *testing.T, got, want []complex128, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, oracle %d", ctx, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: output %d is %v, oracle %v", ctx, i, got[i], want[i])
		}
	}
}

// edgeMus are fractional offsets at the corners of the run
// decomposition: signed zeros, the smallest subnormal, values within
// an ulp of 0 and ±1, and the ulp boundaries of the first binades.
var edgeMus = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-300, -1e-300,
	0x1p-53, -0x1p-53, 0x1p-40, -0x1p-40, 0.5, -0.5, 0.25 + 0x1p-52,
	math.Nextafter(1, 0), -math.Nextafter(1, 0), 0.37, -0.4,
}

// TestEvalDriftMatchesPerSample pins EvalDrift bit for bit against the
// per-sample oracle: drift ±0 (the binade runs) and drift ≠ 0, μ₀
// across (−1, 1) with the corners of edgeMus, lengths on either side of
// each power of two up to 2^15, interpolator taps 2–8, and signals
// shorter than the filter.
func TestEvalDriftMatchesPerSample(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	var rs Resampler
	lengths := []int{0, 1, 2, 3, 5, 7}
	for k := 3; k <= 15; k++ {
		lengths = append(lengths, 1<<k-1, 1<<k, 1<<k+1, 1<<k+2)
	}
	for _, ln := range lengths {
		x := randVec(r, ln)
		trials := 6
		if ln > 4096 {
			trials = 2
		}
		for trial := 0; trial < trials; trial++ {
			taps := 2 + r.Intn(7)
			mu0 := 2*r.Float64() - 1
			if trial < len(edgeMus) && r.Intn(2) == 0 {
				mu0 = edgeMus[r.Intn(len(edgeMus))]
			}
			drift := 0.0
			switch trial % 3 {
			case 1:
				drift = math.Copysign(0, -1)
			case 2:
				drift = (r.Float64() - 0.5) * 4e-4
			}
			rs.Interp = Interpolator{Taps: taps}
			got := rs.EvalDrift(nil, x, mu0, drift)
			requireSameBits(t, got, evalDriftRef(rs.Interp, x, mu0, drift),
				fmt.Sprintf("len=%d taps=%d mu0=%v drift=%v", ln, taps, mu0, drift))
		}
	}
	// Every corner offset at a length that crosses several binades.
	x := randVec(r, 700)
	for _, mu0 := range edgeMus {
		for _, taps := range []int{2, 4, 8} {
			rs.Interp = Interpolator{Taps: taps}
			got := rs.EvalDrift(nil, x, mu0, 0)
			requireSameBits(t, got, evalDriftRef(rs.Interp, x, mu0, 0),
				fmt.Sprintf("taps=%d mu0=%v", taps, mu0))
		}
	}
}

// TestEvalGridMatchesPerSample pins EvalGrid bit for bit against the
// per-output oracle, with anchors that put the grid partly or wholly
// outside x and signals shorter than the filter.
func TestEvalGridMatchesPerSample(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	var rs Resampler
	for trial := 0; trial < 400; trial++ {
		taps := 2 + r.Intn(7)
		ln := r.Intn(64)
		if trial%4 == 0 {
			ln = r.Intn(2 * taps) // shorter than the filter
		}
		x := randVec(r, ln)
		pos0 := (r.Float64() - 0.5) * float64(ln+6*taps)
		switch trial % 9 {
		case 0:
			pos0 = math.Floor(pos0)
		case 1:
			pos0 = edgeMus[r.Intn(len(edgeMus))]
		}
		n := r.Intn(ln + 4*taps + 1)
		rs.Interp = Interpolator{Taps: taps}
		got := rs.EvalGrid(nil, x, pos0, n)
		requireSameBits(t, got, evalGridRef(rs.Interp, x, pos0, n),
			fmt.Sprintf("len=%d taps=%d pos0=%v n=%d", ln, taps, pos0, n))
	}
}

// TestResamplerAllocFree pins the edge windows to the stack: once a
// Resampler's phase FIR has been grown, grid and drift evaluations with
// clipped outputs at both ends allocate nothing.
func TestResamplerAllocFree(t *testing.T) {
	x := randVec(rand.New(rand.NewSource(97)), 300)
	dst := make([]complex128, len(x)+20)
	rs := Resampler{Interp: Interpolator{Taps: 4}}
	op := func() {
		rs.EvalGrid(dst, x, -9.3, len(dst))
		rs.EvalDrift(dst[:len(x)], x, -0.3, 0)
		rs.EvalDrift(dst[:len(x)], x, 0.6, 3e-4)
	}
	op()
	if n := testing.AllocsPerRun(20, op); n != 0 {
		t.Fatalf("%v allocations per run in steady state, want 0", n)
	}
}

// FuzzEvalDrift searches EvalDrift's run boundaries against the
// per-sample oracle, bit for bit. Drift is forced to 0 whenever the
// seed is even, so half the inputs take the binade runs.
func FuzzEvalDrift(f *testing.F) {
	f.Add(int64(0), 0.37, 0.0, 1000, 4)
	f.Add(int64(2), -0.4, 0.0, 4097, 4)
	f.Add(int64(4), 1e-300, 0.0, 70, 3)
	f.Add(int64(6), -0x1p-53, 0.0, 70, 8)
	f.Add(int64(1), 0.2, 2e-5, 512, 4)
	f.Add(int64(3), -0.9, -3e-3, 9, 2)
	f.Fuzz(func(t *testing.T, seed int64, mu0, drift float64, ln, taps int) {
		if ln < 0 || ln > 1<<15 || taps < 2 || taps > 8 ||
			!(math.Abs(mu0) < 1) || !(math.Abs(drift) < 1e-2) {
			t.Skip()
		}
		if seed%2 == 0 {
			drift = 0
		}
		x := randVec(rand.New(rand.NewSource(seed)), ln)
		rs := Resampler{Interp: Interpolator{Taps: taps}}
		requireSameBits(t, rs.EvalDrift(nil, x, mu0, drift), evalDriftRef(rs.Interp, x, mu0, drift), "fuzz")
	})
}
