package phy

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"zigzag/internal/dsp"
	"zigzag/internal/modem"
)

// fitISIRef is FitISI with the residual derotated by a per-sample
// cmplx.Exp of the ramp; it returns the fitted taps.
func fitISIRef(m *Modeler, residual, chips []complex128, chipFrom, chipTo int) ([]complex128, error) {
	n0, n1 := m.chunkSampleRange(chipFrom, chipTo)
	n0 = max(n0, 0)
	n1 = min(n1, len(residual))
	margin := m.cfg.ModelTaps + m.interp.Taps + dsp.DefaultSincTaps
	w := dsp.Clone(m.alignedWave(chips, n0, n1))
	y := make([]complex128, n1-n0)
	for n := n0; n < n1; n++ {
		y[n-n0] = residual[n] * cmplx.Exp(complex(0, -m.ramp(float64(n))))
	}
	var lsq dsp.LSQ
	g, err := lsq.EstimateFIR(w, y, margin, len(y)-margin, m.cfg.ModelTaps)
	if err != nil {
		return nil, err
	}
	return append([]complex128(nil), g.Taps...), nil
}

// relL2 returns ‖got − want‖ / ‖want‖.
func relL2(got, want []complex128) float64 {
	var num, den float64
	for i, w := range want {
		e := got[i] - w
		num += real(e)*real(e) + imag(e)*imag(e)
		den += real(w)*real(w) + imag(w)*imag(w)
	}
	return math.Sqrt(num / den)
}

// TestFitISIMatchesOracle holds the taps FitISI fits on its tone-kernel
// derotation to the per-sample cmplx.Exp derotation within 1e-12
// (relative L2), on fresh ramps and on ramps the tracker has re-anchored,
// over spans shorter and longer than an AnchorBlock.
func TestFitISIMatchesOracle(t *testing.T) {
	for _, seed := range []int64{401, 409, 419} {
		cfg, rx, wave, s := allocScenario(t, seed)
		m := NewModeler(cfg, s)
		for _, span := range [][2]int{{0, 600}, {0, 2400}, {900, 1300}, {1500, 3100}} {
			want, err := fitISIRef(m, rx, wave, span[0], span[1])
			if err != nil {
				t.Fatalf("seed %d span %v: oracle: %v", seed, span, err)
			}
			if err := m.FitISI(rx, wave, span[0], span[1]); err != nil {
				t.Fatalf("seed %d span %v: FitISI: %v", seed, span, err)
			}
			if d := relL2(m.Filter().Taps, want); d > 1e-12 {
				t.Fatalf("seed %d span %v: taps %v, oracle %v (relative L2 %.3g)", seed, span, m.Filter().Taps, want, d)
			}
			// Move the ramp's anchor and frequency before the next span
			// with the production pair: subtract a chunk, then refine it.
			snap, res := m.State(), dsp.Clone(rx)
			m.Subtract(res, wave, span[1], span[1]+300)
			m.RefineSpan(res, wave, span[1], span[1]+300, snap)
			if m.State() == snap {
				t.Fatalf("seed %d span %v: RefineSpan left the ramp where it was", seed, span)
			}
		}
	}
}

// decodeRawRef is decodeRaw with the correction phasor evaluated by a
// fresh math.Sincos of the tracked phase at every symbol.
func decodeRawRef(d *SymbolDecoder, raw []complex128, from, to int, reverse bool) (decisions, soft []complex128) {
	n := to - from
	decisions = make([]complex128, n)
	soft = make([]complex128, n)
	base := from - d.cfg.EqTaps
	for s := 0; s < n; s++ {
		k := from + s
		if reverse {
			k = to - 1 - s
		}
		z := d.equalizeAt(raw, base, k)
		sn, cs := math.Sincos(-d.phase)
		z *= complex(cs, sn)
		dec := modem.Slice(d.scheme, z)
		soft[k-from] = z
		decisions[k-from] = dec
		if !d.cfg.DisablePhaseTracking {
			err := phaseError(z, dec)
			d.freqAdj += d.cfg.PLLFreqGain * err
			d.phase = dsp.WrapPhase(d.phase + d.cfg.PLLGain*err + d.freqAdj)
		}
	}
	return decisions, soft
}

// TestDecodeRangePLLMatchesOracle holds the PLL's recurrence phasor to
// the per-symbol Sincos loop: equal decisions, and soft values and loop
// state within 1e-9, forward and reverse over several AnchorBlock
// re-anchors. The sync's frequency is biased so the loop has a residual
// offset to track.
func TestDecodeRangePLLMatchesOracle(t *testing.T) {
	for _, seed := range []int64{431, 433} {
		cfg, rx, _, s := allocScenario(t, seed)
		s.Freq *= 1.002
		pre := cfg.PreambleBits
		const n = 1500
		trained := func() *SymbolDecoder {
			d := NewSymbolDecoder(cfg, s, modem.BPSK)
			if err := d.TrainEqualizer(rx, cfg.PreambleSymbols(), 0); err != nil {
				t.Fatal(err)
			}
			return d
		}
		for _, reverse := range []bool{false, true} {
			d, ref := trained(), trained()
			for _, dd := range []*SymbolDecoder{d, ref} {
				dd.phase, dd.freqAdj = 0.3, -2e-4
			}
			dec, soft := d.DecodeRange(rx, pre, pre+n, reverse)
			raw := make([]complex128, n+2*cfg.EqTaps)
			ref.fillRaw(rx, pre-cfg.EqTaps, raw)
			wantDec, wantSoft := decodeRawRef(ref, raw, pre, pre+n, reverse)
			for i := range dec {
				if dec[i] != wantDec[i] {
					t.Fatalf("seed %d reverse %v: decision %d: %v, oracle %v", seed, reverse, i, dec[i], wantDec[i])
				}
				if e := cmplx.Abs(soft[i] - wantSoft[i]); e > 1e-9 {
					t.Fatalf("seed %d reverse %v: soft %d: %v, oracle %v (Δ=%.3g)", seed, reverse, i, soft[i], wantSoft[i], e)
				}
			}
			ph, fa := d.PLLState()
			wph, wfa := ref.PLLState()
			if math.Abs(ph-wph) > 1e-9 || math.Abs(fa-wfa) > 1e-9 {
				t.Fatalf("seed %d reverse %v: loop state (%g, %g), oracle (%g, %g)", seed, reverse, ph, fa, wph, wfa)
			}
		}
	}
}

// clampedPhaseRef is clampedPhase without the short-cut: atan2 of w,
// clamped to ±π/4.
func clampedPhaseRef(w complex128) float64 {
	e := cmplx.Phase(w)
	const lim = math.Pi / 4
	if e > lim {
		e = lim
	} else if e < -lim {
		e = -lim
	}
	return e
}

// phaseErrorRef is phaseError on clampedPhaseRef.
func phaseErrorRef(z, dec complex128) float64 {
	if dec == 0 || z == 0 {
		return 0
	}
	return clampedPhaseRef(z * cmplx.Conj(dec))
}

// requirePhaseBits fails unless the short-cut and the oracle agree in
// every bit on w, and on (w, dec) through phaseError.
func requirePhaseBits(t *testing.T, w, dec complex128) {
	t.Helper()
	if got, want := clampedPhase(w), clampedPhaseRef(w); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("clampedPhase(%v) = %v, atan2 and clamp give %v", w, got, want)
	}
	if got, want := phaseError(w, dec), phaseErrorRef(w, dec); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("phaseError(%v, %v) = %v, atan2 and clamp give %v", w, dec, got, want)
	}
}

// TestClampedPhaseMatchesAtan2 pins the clamp short-cut bit for bit
// against atan2 and clamp: every pair of signed zeros, subnormals,
// normals, infinities and NaN; |y| = x and its neighbours; quotients
// y/x that underflow; and random samples over many magnitudes.
func TestClampedPhaseMatchesAtan2(t *testing.T) {
	corners := []float64{0, math.Copysign(0, -1), math.NaN()}
	for _, v := range []float64{5e-324, 0x1p-1022, 1e-300, 0.5, 1, math.Nextafter(1, 2), 3, 1e300, math.MaxFloat64, math.Inf(1)} {
		corners = append(corners, v, -v)
	}
	for _, x := range corners {
		for _, y := range corners {
			requirePhaseBits(t, complex(x, y), complex(y, x))
		}
	}
	r := rand.New(rand.NewSource(61))
	mag := func() float64 { return math.Ldexp(r.Float64()+0.5, r.Intn(2100)-1075) }
	sign := func() float64 { return float64(2*r.Intn(2) - 1) }
	for i := 0; i < 200000; i++ {
		x, y := sign()*mag(), sign()*mag()
		switch i % 4 {
		case 0:
			y = math.Copysign(math.Abs(x), y) // |y| = x
		case 1:
			y = math.Copysign(math.Nextafter(math.Abs(x), math.Inf(2*r.Intn(2)-1)), y)
		case 2:
			x, y = sign()*r.NormFloat64(), sign()*r.NormFloat64()
		}
		dec := complex(sign(), 0)
		if i%2 == 0 {
			dec = complex(sign(), sign()) // a QPSK decision
		}
		requirePhaseBits(t, complex(x, y), dec)
	}
}

// FuzzPhaseError searches for inputs on which the clamp short-cut and
// atan2 and clamp disagree in any bit.
func FuzzPhaseError(f *testing.F) {
	f.Add(1.0, 1.0, 1.0, 0.0)
	f.Add(-1.0, -5e-324, 1.0, 0.0)
	f.Add(-1e300, -1e-300, -1.0, 1.0)
	f.Add(0.3, -0.1, 1.0, -1.0)
	f.Add(math.Inf(-1), -2.0, 0.0, 1.0)
	f.Fuzz(func(t *testing.T, x, y, dr, di float64) {
		requirePhaseBits(t, complex(x, y), complex(dr, di))
	})
}
