package impair

import (
	"math"
	"math/cmplx"
	"testing"

	"zigzag/internal/dsp"
)

// Scalar oracles of the kernel-backed models: each is the per-sample
// rotator evaluation of a model's trajectory from the same rng draws in
// the same order, and each model must agree with its oracle to ≤1e-9 of
// the signal scale (the ADC quantizer bit for bit).

// fadingRef is Fading.ApplyLink on one dsp.Rotator per path: each
// rotator advances one block per Next, and the gain is summed per block.
func fadingRef(f *Fading, seed int64, buf []complex128, off int) {
	p := f.paths()
	blk := f.block()
	rng := newStream(seed)
	rot := make([]dsp.Rotator, p+1)
	scatterAmp := math.Sqrt(1 / (float64(p) * (f.K + 1)))
	base := float64(off)
	for k := 0; k < p; k++ {
		omega := 2 * math.Pi * f.Doppler * math.Cos(rng.angle())
		phi := rng.angle()
		rot[k] = dsp.NewRotator(phi+omega*base, omega*float64(blk))
	}
	losAmp := math.Sqrt(f.K / (f.K + 1))
	rot[p] = dsp.NewRotator(rng.angle(), 0)
	var g complex128
	for i := range buf {
		if i%blk == 0 {
			var sc complex128
			for k := 0; k < p; k++ {
				sc += rot[k].Next()
			}
			g = complex(scatterAmp, 0)*sc + complex(losAmp, 0)*rot[p].Next()
		}
		buf[i] *= g
	}
}

// multipathRef is Multipath.ApplyLink as a direct convolution with one
// dsp.Rotator per (tap, path), every tap gain summed per sample.
func multipathRef(m *Multipath, seed int64, buf []complex128, off int) {
	powers := m.powers()
	taps := len(powers)
	p := m.paths()
	rng := newStream(seed)
	rot := make([]dsp.Rotator, taps*p)
	var norm float64
	for _, pw := range powers {
		norm += pw
	}
	base := float64(off)
	amps := make([]float64, taps)
	for k := 0; k < taps; k++ {
		for j := 0; j < p; j++ {
			omega := 2 * math.Pi * m.Doppler * math.Cos(rng.angle())
			phi := rng.angle()
			rot[k*p+j] = dsp.NewRotator(phi+omega*base, omega)
		}
		amps[k] = math.Sqrt(powers[k] / (norm * float64(p)))
	}
	in := append([]complex128(nil), buf...)
	for n := range buf {
		var y complex128
		for k := 0; k < taps; k++ {
			var h complex128
			for j := 0; j < p; j++ {
				h += rot[k*p+j].Next()
			}
			if n-k >= 0 {
				y += complex(amps[k], 0) * h * in[n-k]
			}
		}
		buf[n] = y
	}
}

// driftRef is Drift.ApplyLink on a second-order rotator recurrence (two
// complex multiplies per sample) with one rng.norm() and one Sincos per
// sample for the phase-noise walk; both accumulators renormalize every
// 1024 samples.
func driftRef(d *Drift, seed int64, buf []complex128) {
	rng := newStream(seed)
	// cur = e^{jφ(n)}, step = e^{j(Rate·n + Rate/2)}, so that
	// φ(n) = Rate·n²/2 exactly on integer steps.
	cur := complex(1, 0)
	step := cmplx.Exp(complex(0, d.Rate/2))
	stepInc := cmplx.Exp(complex(0, d.Rate))
	for i := range buf {
		v := cur
		if d.PhaseNoise > 0 {
			sin, cos := math.Sincos(d.PhaseNoise * rng.norm())
			cur *= complex(cos, sin)
		}
		buf[i] *= v
		cur *= step
		step *= stepInc
		if i&0x3ff == 0x3ff {
			cur /= complex(cmplx.Abs(cur), 0)
			step /= complex(cmplx.Abs(step), 0)
		}
	}
}

// interfererRef is Interferer.ApplyFront as one interleaved per-sample
// loop: the tone is added from a dsp.Rotator while the burst lasts, and
// the Markov transition is drawn after each sample.
func interfererRef(it *Interferer, seed int64, buf []complex128) {
	on, off := it.means()
	pOnOff := 1 / on
	pOffOn := 1 / off
	rng := newStream(seed)
	active := rng.float64() < it.Duty()
	var tone dsp.Rotator
	if active {
		tone = dsp.NewRotator(rng.angle(), it.Freq)
	}
	amp := complex(it.Amp, 0)
	for i := range buf {
		if active {
			buf[i] += amp * tone.Next()
			if rng.float64() < pOnOff {
				active = false
			}
		} else if rng.float64() < pOffOn {
			active = true
			tone = dsp.NewRotator(rng.angle(), it.Freq)
		}
	}
}

// adcRef is the ADC's clamp-and-round rail loop.
func adcRef(buf []complex128, fs, levels float64) {
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

// oracleLen spans several AnchorBlock (512) re-anchors and 1024-sample
// rotator renormalizations, with a ragged tail.
const oracleLen = 4*1024 + 37

// maxMod returns the largest modulus in buf.
func maxMod(buf []complex128) float64 {
	_, m := dsp.MaxAbs(buf)
	return m
}

// requireWithin fails unless got and want agree to ≤1e-9·scale at every
// sample, and unless the model changed the input at all.
func requireWithin(t *testing.T, name string, in, got, want []complex128, scale float64) {
	t.Helper()
	if equal(got, in) {
		t.Fatalf("%s: model left the buffer unchanged", name)
	}
	for i := range got {
		if e := cmplx.Abs(got[i] - want[i]); e > 1e-9*scale {
			t.Fatalf("%s: sample %d: kernel %v, oracle %v (Δ=%.3g, scale %.3g)", name, i, got[i], want[i], e, scale)
		}
	}
}

// applyDirty runs ApplyLink once on other inputs so the model's scratch
// is dirty, then on a copy of in.
func applyDirty(m LinkModel, seed int64, in []complex128, off int) []complex128 {
	m.ApplyLink(seed+1, testBuf(len(in)+500, 3), off+9)
	got := append([]complex128(nil), in...)
	m.ApplyLink(seed, got, off)
	return got
}

func TestFadingMatchesOracle(t *testing.T) {
	for _, f := range []Fading{
		{Doppler: 3e-4},
		{Doppler: 3e-4, K: 8},
		{Doppler: 1e-3, Paths: 5},
		{Doppler: 0, K: 1},
		{Doppler: 3e-4, Block: 64},
		{Doppler: 2e-3, K: 2, Block: 7},
	} {
		for _, off := range []int{0, 1234} {
			in := testBuf(oracleLen, 21)
			got := applyDirty(&f, 4711, in, off)
			want := append([]complex128(nil), in...)
			fadingRef(&f, 4711, want, off)
			requireWithin(t, "fading", in, got, want, math.Max(maxMod(in), maxMod(want)))
		}
	}
}

func TestMultipathMatchesOracle(t *testing.T) {
	for _, m := range []Multipath{
		{Doppler: 2e-4},
		{Doppler: 1e-3, Powers: []float64{1, 0.5, 0.25, 0.1}, Paths: 4},
	} {
		for _, off := range []int{0, 777} {
			in := testBuf(oracleLen, 22)
			got := applyDirty(&m, 99, in, off)
			want := append([]complex128(nil), in...)
			multipathRef(&m, 99, want, off)
			requireWithin(t, "multipath", in, got, want, math.Max(maxMod(in), maxMod(want)))
		}
	}
}

// TestDriftMatchesOracle covers both ApplyLink forms: the pure carrier
// recurrence (PhaseNoise 0, no draws) and the precomputed walk plane.
func TestDriftMatchesOracle(t *testing.T) {
	for _, d := range []Drift{
		{Rate: 5e-7},
		{Rate: -3e-6},
		{Rate: 5e-7, PhaseNoise: 2e-3},
		{Rate: 0, PhaseNoise: 0.05},
	} {
		in := testBuf(oracleLen, 23)
		got := applyDirty(&d, 31337, in, 40)
		want := append([]complex128(nil), in...)
		driftRef(&d, 31337, want)
		requireWithin(t, "drift", in, got, want, maxMod(in))
	}
}

// TestInterfererMatchesOracle holds the burst boundaries and the tone
// samples to the interleaved loop, with bursts both shorter and longer
// than an AnchorBlock.
func TestInterfererMatchesOracle(t *testing.T) {
	for _, it := range []Interferer{
		{Freq: 0.3, Amp: 0.8, MeanOn: 50, MeanOff: 150},
		{Freq: -1.1, Amp: 2, MeanOn: 700, MeanOff: 300},
		{Freq: 0.05, Amp: 1, MeanOn: 300, MeanOff: 900},
	} {
		for _, seed := range []int64{1, 2, 3} {
			in := testBuf(oracleLen, 24)
			it.ApplyFront(seed+100, testBuf(oracleLen+300, 4))
			got := append([]complex128(nil), in...)
			it.ApplyFront(seed, got)
			want := append([]complex128(nil), in...)
			interfererRef(&it, seed, want)
			requireWithin(t, "interferer", in, got, want, math.Max(maxMod(in), it.Amp))
		}
	}
}

// TestADCMatchesOracle holds the quantizer bit for bit to the rail loop,
// and pins how Bits and FullScale map to its clip level and step count.
func TestADCMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		adc        ADC
		fs, levels float64
	}{
		{ADC{}, 4, 127},
		{ADC{Bits: 6, FullScale: 2}, 2, 31},
		{ADC{Bits: 10, FullScale: 3}, 3, 511},
		{ADC{Bits: 1}, 4, 1},
		{ADC{Bits: -3}, 4, 1},
		{ADC{Bits: 40, FullScale: -1}, 4, 1<<23 - 1},
	} {
		in := testBuf(oracleLen, 25)
		for i := range in {
			in[i] *= 5
		}
		in[0], in[1] = complex(math.Inf(1), math.Inf(-1)), complex(math.NaN(), math.Copysign(0, -1))
		in[2], in[3] = complex(tc.fs, -tc.fs), complex(-1e-12, 0.5*tc.fs/tc.levels)
		got := append([]complex128(nil), in...)
		tc.adc.ApplyFront(0, got)
		want := append([]complex128(nil), in...)
		adcRef(want, tc.fs, tc.levels)
		for i := range got {
			if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
				math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
				t.Fatalf("%+v: sample %d (in %v): kernel %v, rail loop %v", tc.adc, i, in[i], got[i], want[i])
			}
		}
	}
}
