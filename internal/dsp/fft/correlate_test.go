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
		got := CorrelateProfileFFT(nil, y, ref, f, &Scratch{})
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
	var s Scratch
	if CorrelateProfileFFT(nil, []complex128{1, 2}, nil, 0, &s) != nil {
		t.Error("empty ref should give nil profile")
	}
	if CorrelateProfileFFT(nil, []complex128{1}, []complex128{1, 2}, 0, &s) != nil {
		t.Error("y shorter than ref should give nil profile")
	}
	if Correlate(nil, nil, nil, 0, &s) != nil {
		t.Error("empty inputs should give nil profile")
	}
	// Single-output correlation (len(y) == len(ref)) on the FFT path.
	r := rand.New(rand.NewSource(9))
	ref := randVec(r, 100)
	y := randVec(r, 100)
	got := CorrelateProfileFFT(nil, y, ref, 0.02, &s)
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
	first := Correlate(nil, y, ref, 0.003, &Scratch{})
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
}

// TestOneShotTransformsIntoOneSlot pins the footprint of the two halves
// of Blocks: a buffer that was not loaded is transformed block by block
// through one plan-sized slot, while a loaded buffer keeps every
// block's transform for the calls that share it.
func TestOneShotTransformsIntoOneSlot(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	ref := randVec(r, 512)
	y := randVec(r, 1<<16)
	n := planSize(len(ref), len(y))
	out, step := len(y)-len(ref)+1, n-len(ref)+1
	blocks := (out + step - 1) / step
	var s Scratch
	Correlate(nil, y, ref, 0, &s)
	if got := len(s.blocks.spec); got != n {
		t.Errorf("one-shot correlation keeps %d transform samples, want one %d-sample block", got, n)
	}
	var win Reference
	win.Set(ref)
	var blk Blocks
	blk.Load(y)
	blk.Correlate(nil, y, &win, 0)
	if got := len(blk.spec); got != blocks*n {
		t.Errorf("loaded correlation keeps %d transform samples, want %d blocks of %d", got, blocks, n)
	}
}

// sameBits compares two profiles bit for bit.
func sameBits(t *testing.T, tag string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: profile length %d, one-shot %d", tag, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s: profile[%d] = %v, one-shot %v", tag, i, got[i], want[i])
		}
	}
}

// sameEnergyBits compares two window-energy vectors bit for bit.
func sameEnergyBits(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d window energies, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: window energy[%d] = %v, want %v", tag, i, got[i], want[i])
		}
	}
}

// FuzzPreparedCorrelate pins the split engine against the one-shot
// Correlate bit for bit: 1–4 references with lengths on both sides of
// CrossoverRefLen, each searched at two random CFOs over two buffers of
// different plan sizes through one shared Blocks, so every reference
// spectrum is reused across plan sizes and every buffer transform
// across references. A second pass in reverse order is served from the
// caches, and a buffer rewritten in place and loaded again must not be.
func FuzzPreparedCorrelate(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(2000), uint16(700))
	f.Add(int64(2), uint8(1), uint16(100), uint16(5000))
	f.Add(int64(3), uint8(4), uint16(300), uint16(64))
	f.Fuzz(func(t *testing.T, seed int64, nRefs uint8, ly1, ly2 uint16) {
		r := rand.New(rand.NewSource(seed))
		refs := make([]Reference, 1+int(nRefs)%4)
		freqs := make([][2]float64, len(refs))
		for j := range refs {
			m := 1 + r.Intn(CrossoverRefLen-1)
			if r.Intn(2) == 0 {
				m = CrossoverRefLen + r.Intn(600)
			}
			refs[j].Set(randVec(r, m))
			for c := range freqs[j] {
				freqs[j][c] = (r.Float64() - 0.5) * 0.1
			}
		}
		var blk Blocks
		var one Scratch
		check := func(tag string, y []complex128, order []int) {
			for _, j := range order {
				for _, fq := range freqs[j] {
					want := Correlate(nil, y, refs[j].Samples(), fq, &one)
					sameBits(t, tag, blk.Correlate(nil, y, &refs[j], fq), want)
				}
				m := len(refs[j].Samples())
				sameEnergyBits(t, tag, blk.Energy(y, m), dsp.WindowEnergy(nil, y, m))
			}
		}
		forward := make([]int, len(refs))
		backward := make([]int, len(refs))
		for j := range refs {
			forward[j], backward[len(refs)-1-j] = j, j
		}
		for _, ly := range []int{1 + int(ly1)%8192, 1 + int(ly2)%8192} {
			y := randVec(r, ly)
			blk.Load(y)
			check("first pass", y, forward)
			check("cached pass", y, backward)
			copy(y, randVec(r, ly)) // rewrite in place
			blk.Load(y)
			check("reloaded", y, forward)
		}
	})
}

// TestEnergyFollowsSharing pins Blocks.Energy to the sharing rule of
// the transforms: the loaded buffer's energies are computed once per
// window length, a call on any other buffer gets that buffer's — even
// with no Correlate in between — and a buffer rewritten in place and
// loaded again gets its new ones.
func TestEnergyFollowsSharing(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	y, z := randVec(r, 2000), randVec(r, 2000)
	var blk Blocks
	blk.Load(y)
	for _, c := range []struct {
		tag string
		buf []complex128
		w   int
	}{
		{"loaded", y, 64},
		{"loaded, another window", y, 512},
		{"another buffer", z, 512},
		{"back to the first buffer", y, 512},
		{"window longer than the buffer", y, len(y) + 1},
	} {
		sameEnergyBits(t, c.tag, blk.Energy(c.buf, c.w), dsp.WindowEnergy(nil, c.buf, c.w))
	}
	blk.Load(y)
	blk.Energy(y, 64)
	copy(y, z) // rewrite in place
	blk.Load(y)
	sameEnergyBits(t, "reloaded", blk.Energy(y, 64), dsp.WindowEnergy(nil, y, 64))
}

// TestReferenceCacheBound cycles one Reference through more CFOs than
// it caches, twice, so entries are replaced round-robin and rebuilt:
// every profile must still equal the one-shot one bit for bit, and the
// cache must stay within its bound.
func TestReferenceCacheBound(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	y := randVec(r, 3000)
	var ref Reference
	ref.Set(randVec(r, 64))
	var blk Blocks
	blk.Load(y)
	for round := 0; round < 2; round++ {
		for k := 0; k < maxSpectra+4; k++ {
			f := 0.001 * float64(k)
			sameBits(t, "cycled", blk.Correlate(nil, y, &ref, f), Correlate(nil, y, ref.Samples(), f, &Scratch{}))
			if len(ref.cache) > maxSpectra {
				t.Fatalf("reference caches %d spectra, bound %d", len(ref.cache), maxSpectra)
			}
		}
	}
}
