package dsp

import (
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
// Interpolator.At evaluation at the same positions.
func checkAgainstAt(t *testing.T, ip Interpolator, x, got []complex128, pos func(int) float64, tol float64, ctx string) {
	t.Helper()
	for i := range got {
		want := ip.At(x, pos(i))
		if e := absC(got[i] - want); e > tol {
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
