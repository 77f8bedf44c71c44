package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"zigzag/internal/dsp"
)

// profScale is the tolerance anchor for naive-vs-FFT comparisons: the
// profile values are inner products of up to len(ref) unit-scale terms,
// so differences are judged relative to √(E_ref·E_y) rather than to the
// (possibly near-zero) profile value at one alignment.
func profScale(y, ref []complex128) float64 {
	return math.Sqrt(dsp.Energy(ref)*dsp.Energy(y)) + 1
}

func assertProfilesMatch(t *testing.T, tag string, got, want []complex128, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: profile length %d, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if d := cmplx.Abs(got[i] - want[i]); d > tol {
			t.Fatalf("%s: profile[%d] differs by %g (tol %g): fft=%v naive=%v",
				tag, i, d, tol, got[i], want[i])
		}
	}
}

// TestCorrelateFFTMatchesNaiveFuzz is the property test of the tentpole:
// the overlap-save engine must reproduce the naive kernel to ≤1e−9 of
// the profile scale across random reference lengths (including
// non-powers of two and lengths straddling the renormalization period),
// buffer lengths, and frequency steps.
func TestCorrelateFFTMatchesNaiveFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	steps := []float64{0, 0.00321, -0.017, 0.3}
	for trial := 0; trial < 60; trial++ {
		m := 1 + r.Intn(700)
		if trial%7 == 0 {
			m = 1024 + r.Intn(2048) // straddle the rotator renormalization
		}
		ly := m + r.Intn(4000)
		ref := randVec(r, m)
		y := randVec(r, ly)
		f := steps[r.Intn(len(steps))]
		want := dsp.CorrelateProfile(y, ref, f)
		got := CorrelateProfileFFT(nil, y, ref, f, nil)
		assertProfilesMatch(t, "fuzz", got, want, 1e-9*profScale(y, ref))
	}
}

func TestCorrelateDispatchMatchesNaive(t *testing.T) {
	// Correlate must agree with dsp.CorrelateProfile on both sides of the
	// crossover (exactly below it, to rounding error above it).
	r := rand.New(rand.NewSource(8))
	var s Scratch
	for _, m := range []int{1, 8, CrossoverRefLen - 1, CrossoverRefLen, 64, 512} {
		for _, ly := range []int{m, m + 10, m + CrossoverMinOutputs, m + 3000} {
			ref := randVec(r, m)
			y := randVec(r, ly)
			want := dsp.CorrelateProfile(y, ref, 0.01)
			got := Correlate(nil, y, ref, 0.01, &s)
			assertProfilesMatch(t, "dispatch", got, want, 1e-9*profScale(y, ref))
		}
	}
}

func TestCorrelateEdgeCases(t *testing.T) {
	if CorrelateProfileFFT(nil, []complex128{1, 2}, nil, 0, nil) != nil {
		t.Error("empty ref should give nil profile")
	}
	if CorrelateProfileFFT(nil, []complex128{1}, []complex128{1, 2}, 0, nil) != nil {
		t.Error("y shorter than ref should give nil profile")
	}
	if Correlate(nil, nil, nil, 0, nil) != nil {
		t.Error("empty inputs should give nil profile")
	}
	// Single-output correlation (len(y) == len(ref)) on the FFT path.
	r := rand.New(rand.NewSource(9))
	ref := randVec(r, 100)
	y := randVec(r, 100)
	got := CorrelateProfileFFT(nil, y, ref, 0.02, nil)
	want := dsp.CorrelateProfile(y, ref, 0.02)
	assertProfilesMatch(t, "single-output", got, want, 1e-9*profScale(y, ref))
}

func TestCorrelateDeterministicAcrossScratchReuse(t *testing.T) {
	// The same inputs must give byte-identical profiles no matter how
	// the scratch has been used before — the determinism suites depend
	// on it.
	r := rand.New(rand.NewSource(11))
	ref := randVec(r, 64)
	y := randVec(r, 4096)
	first := append([]complex128(nil), Correlate(nil, y, ref, 0.003, nil)...)
	var s Scratch
	// Dirty the scratch with a different-size correlation.
	Correlate(nil, randVec(r, 9000), randVec(r, 300), -0.2, &s)
	second := Correlate(nil, y, ref, 0.003, &s)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("profile[%d] changed across scratch reuse: %v vs %v", i, first[i], second[i])
		}
	}
}

// TestCorrelateSteadyStateAllocs pins the tentpole's allocation
// guarantee: with a threaded Scratch and a reused destination, the
// steady-state FFT correlation path allocates nothing.
func TestCorrelateSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	ref := randVec(r, 64)
	y := randVec(r, 1<<15)
	var s Scratch
	dst := Correlate(nil, y, ref, 0.003, &s) // warm plan, scratch, dst
	if allocs := testing.AllocsPerRun(20, func() {
		dst = Correlate(dst, y, ref, 0.003, &s)
	}); allocs != 0 {
		t.Errorf("steady-state Correlate allocates %v times per run, want 0", allocs)
	}
	// The pooled path (nil scratch) must also reach steady state
	// allocation-free. The race detector's sync.Pool instrumentation
	// defeats pooling, so this half only holds in normal builds.
	if !raceEnabled {
		CorrelateProfileFFT(dst, y, ref, 0.003, nil)
		if allocs := testing.AllocsPerRun(20, func() {
			dst = CorrelateProfileFFT(dst, y, ref, 0.003, nil)
		}); allocs != 0 {
			t.Errorf("pooled-scratch path allocates %v times per run, want 0", allocs)
		}
	}
}
