package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randVec(r *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return v
}

func approxC(a, b complex128, tol float64) bool { return cmplx.Abs(a-b) <= tol }

func TestAddSub(t *testing.T) {
	a := []complex128{1, 2i, 3 + 4i}
	b := []complex128{1i, 1, -1}
	sum := Add(nil, a, b)
	diff := Sub(nil, sum, b)
	for i := range a {
		if !approxC(diff[i], a[i], 1e-12) {
			t.Fatalf("sub(add(a,b),b)[%d] = %v, want %v", i, diff[i], a[i])
		}
	}
}

func TestSubAtClipping(t *testing.T) {
	a := []complex128{1, 1, 1, 1}
	b := []complex128{2, 2, 2}
	if n := SubAt(a, 2, b); n != 2 {
		t.Fatalf("SubAt clipped count = %d, want 2", n)
	}
	want := []complex128{1, 1, -1, -1}
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("a[%d] = %v, want %v", i, a[i], want[i])
		}
	}
	if n := SubAt(a, -1, b); n != 2 {
		t.Fatalf("SubAt negative-offset count = %d, want 2", n)
	}
}

func TestAddAtThenSubAtRoundTrips(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := randVec(r, 64)
	orig := Clone(a)
	b := randVec(r, 20)
	AddAt(a, 10, b)
	SubAt(a, 10, b)
	for i := range a {
		if !approxC(a[i], orig[i], 1e-12) {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestRotateMatchesExp(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a := randVec(r, 3000)
	out := Rotate(nil, a, 0.3, 0.01)
	for _, n := range []int{0, 1, 1023, 1024, 2999} {
		want := a[n] * cmplx.Exp(complex(0, 0.3+float64(n)*0.01))
		if !approxC(out[n], want, 1e-9) {
			t.Fatalf("Rotate[%d] = %v, want %v", n, out[n], want)
		}
	}
}

func TestRotateInverse(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := randVec(r, 500)
	fwd := Rotate(nil, a, 1.1, 0.02)
	back := Rotate(nil, fwd, -1.1, -0.02)
	for i := range a {
		if !approxC(back[i], a[i], 1e-9) {
			t.Fatalf("rotate inverse mismatch at %d", i)
		}
	}
}

func TestDotEnergyConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	a := randVec(r, 100)
	d := Dot(a, a)
	if math.Abs(real(d)-Energy(a)) > 1e-9 || math.Abs(imag(d)) > 1e-9 {
		t.Fatalf("Dot(a,a) = %v, want %v", d, Energy(a))
	}
}

// TestWindowEnergyMatchesDirectSums checks the running sum against
// Energy of each window, including the single-sample and whole-buffer
// windows, and the empty result when no window fits.
func TestWindowEnergyMatchesDirectSums(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	y := randVec(r, 700)
	for _, w := range []int{1, 64, 512, len(y)} {
		got := WindowEnergy(nil, y, w)
		if len(got) != len(y)-w+1 {
			t.Fatalf("w=%d: %d windows, want %d", w, len(got), len(y)-w+1)
		}
		for i, e := range got {
			if want := Energy(y[i : i+w]); math.Abs(e-want) > 1e-9*want {
				t.Fatalf("w=%d: window %d energy %v, direct sum %v", w, i, e, want)
			}
		}
	}
	for _, w := range []int{0, len(y) + 1} {
		if got := WindowEnergy(make([]float64, 3), y, w); len(got) != 0 {
			t.Errorf("w=%d: %d windows, want none", w, len(got))
		}
	}
}

func TestPowerDB(t *testing.T) {
	a := []complex128{1, 1, 1, 1}
	if db := PowerDB(a); math.Abs(db) > 1e-12 {
		t.Fatalf("PowerDB(unit) = %v, want 0", db)
	}
	if !math.IsInf(PowerDB(nil), -1) {
		t.Fatal("PowerDB(empty) should be -Inf")
	}
	if got := FromDB(DB(42.5)); math.Abs(got-42.5) > 1e-9 {
		t.Fatalf("FromDB(DB(x)) = %v", got)
	}
}

func TestWrapPhaseProperty(t *testing.T) {
	f := func(phi float64) bool {
		if math.IsNaN(phi) || math.IsInf(phi, 0) || math.Abs(phi) > 1e6 {
			return true
		}
		w := WrapPhase(phi)
		if w <= -math.Pi || w > math.Pi+1e-9 {
			return false
		}
		// The wrapped angle must be congruent mod 2π.
		d := math.Mod(phi-w, 2*math.Pi)
		if d > math.Pi {
			d -= 2 * math.Pi
		}
		if d < -math.Pi {
			d += 2 * math.Pi
		}
		return math.Abs(d) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseDiff(t *testing.T) {
	a := cmplx.Exp(complex(0, 1.0))
	b := cmplx.Exp(complex(0, 0.25))
	if d := PhaseDiff(a, b); math.Abs(d-0.75) > 1e-12 {
		t.Fatalf("PhaseDiff = %v, want 0.75", d)
	}
}

func TestMaxAbs(t *testing.T) {
	if i, _ := MaxAbs(nil); i != -1 {
		t.Fatal("MaxAbs(empty) index should be -1")
	}
	a := []complex128{1, -3i, 2}
	i, m := MaxAbs(a)
	if i != 1 || math.Abs(m-3) > 1e-12 {
		t.Fatalf("MaxAbs = (%d, %v), want (1, 3)", i, m)
	}
}

func TestEnsureReuse(t *testing.T) {
	buf := make([]complex128, 8)
	out := Scale(buf, 2, make([]complex128, 8))
	if &out[0] != &buf[0] {
		t.Fatal("Scale should reuse a correctly sized destination")
	}
	out2 := Scale(buf[:0], 2, make([]complex128, 4))
	if cap(out2) != cap(buf) {
		t.Fatal("Scale should reslice a destination with spare capacity")
	}
}

func TestScaleLinearityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		a := randVec(r, 16)
		c1 := complex(r.NormFloat64(), r.NormFloat64())
		c2 := complex(r.NormFloat64(), r.NormFloat64())
		lhs := Scale(nil, c1+c2, a)
		rhs := Add(nil, Scale(nil, c1, a), Scale(nil, c2, a))
		for i := range lhs {
			if !approxC(lhs[i], rhs[i], 1e-9) {
				t.Fatalf("linearity violated at %d", i)
			}
		}
	}
}
