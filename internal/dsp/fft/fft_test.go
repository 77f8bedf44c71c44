package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
)

func randVec(r *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return out
}

// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for j := 0; j < n; j++ {
		var acc complex128
		for k := 0; k < n; k++ {
			s, c := math.Sincos(-2 * math.Pi * float64(j) * float64(k) / float64(n))
			acc += x[k] * complex(c, s)
		}
		out[j] = acc
	}
	return out
}

func maxAbsDiff(a, b []complex128) float64 {
	worst := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func vecScale(x []complex128) float64 {
	s := 0.0
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s) + 1
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := randVec(r, n)
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		newNaturalPlan(n).Forward(got)
		if d := maxAbsDiff(got, want); d > 1e-9*vecScale(x) {
			t.Errorf("n=%d: max |FFT−DFT| = %g", n, d)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 8, 128, 1024} {
		x := randVec(r, n)
		y := append([]complex128(nil), x...)
		p := newNaturalPlan(n)
		p.Forward(y)
		p.Inverse(y)
		if d := maxAbsDiff(x, y); d > 1e-11*vecScale(x) {
			t.Errorf("n=%d: round-trip error %g", n, d)
		}
	}
}

func TestScrambledPairRoundTrip(t *testing.T) {
	// The permutation-free forward/inverse pair used by the correlator
	// must invert; feeding a unit spectrum (scaled by 1/n, as the
	// correlator folds in) through the fused product path makes the
	// composition the identity. Cover both stage-remainder parities and
	// the degenerate sizes.
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128, 256, 512, 1024} {
		x := randVec(r, n)
		y := append([]complex128(nil), x...)
		p := PlanFor(n)
		unit := make([]complex128, n)
		for i := range unit {
			unit[i] = complex(1/float64(n), 0)
		}
		p.forwardScrambled(y)
		spec := append([]complex128(nil), y...)
		out := make([]complex128, n)
		p.inverseScrambledProduct(out, y, unit)
		for i := range spec {
			if y[i] != spec[i] {
				t.Fatalf("n=%d: out-of-place inverse wrote its source at %d", n, i)
			}
		}
		p.inverseScrambledProduct(y, y, unit)
		for i := range out {
			if y[i] != out[i] {
				t.Fatalf("n=%d: in-place inverse differs from out-of-place at %d: %v vs %v", n, i, y[i], out[i])
			}
		}
		if d := maxAbsDiff(x, y); d > 1e-11*vecScale(x) {
			t.Errorf("n=%d: scrambled round-trip error %g", n, d)
		}
	}
}

func TestForwardScrambledIsPermutedForward(t *testing.T) {
	// The scrambled spectrum must be a reordering of the natural-order
	// DFT — the correlator relies on the product of two identically
	// scrambled spectra being the scrambled product. Random inputs give
	// distinct spectrum values, so sorting both sides pairs them up.
	r := rand.New(rand.NewSource(4))
	for _, n := range []int{8, 64, 256} {
		x := randVec(r, n)
		nat := append([]complex128(nil), x...)
		newNaturalPlan(n).Forward(nat)
		scr := append([]complex128(nil), x...)
		PlanFor(n).forwardScrambled(scr)
		less := func(s []complex128) func(i, j int) bool {
			return func(i, j int) bool {
				if real(s[i]) != real(s[j]) {
					return real(s[i]) < real(s[j])
				}
				return imag(s[i]) < imag(s[j])
			}
		}
		sort.Slice(nat, less(nat))
		sort.Slice(scr, less(scr))
		for i := range nat {
			if d := cmplx.Abs(nat[i] - scr[i]); d > 1e-9*vecScale(x) {
				t.Fatalf("n=%d: scrambled spectrum is not a permutation of the DFT (slot %d differs by %g)", n, i, d)
			}
		}
	}
}

func TestPlanCacheSharesPlans(t *testing.T) {
	if PlanFor(512) != PlanFor(512) {
		t.Fatal("PlanFor(512) returned distinct plans")
	}
}

func TestPlanForRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{0, -4, 3, 96} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PlanFor(%d) did not panic", n)
				}
			}()
			PlanFor(n)
		}()
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{-3: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}
