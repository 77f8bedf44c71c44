package phy

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"zigzag/internal/channel"
	"zigzag/internal/dsp"
	"zigzag/internal/modem"
)

// allocScenario builds the fixture the allocation-regression tests run
// on, mirroring the modeler tests: a realistic link with frequency
// offset, fractional sampling offset and ISI.
func allocScenario(t *testing.T, seed int64) (Config, []complex128, []complex128, Sync) {
	t.Helper()
	cfg := Default()
	r := rand.New(rand.NewSource(seed))
	f := testFrame(r, 200, modem.BPSK)
	wave, err := NewTransmitter(cfg).Waveform(f)
	if err != nil {
		t.Fatal(err)
	}
	link := &channel.Params{
		Gain:           cmplx.Rect(0.9, 1.1),
		FreqOffset:     0.004,
		SamplingOffset: 0.37,
		ISI:            channel.TypicalISI(1),
	}
	air := &channel.Air{NoisePower: 1e-4, Rng: rand.New(rand.NewSource(seed + 1))}
	rx := air.Mix(len(wave)+120, channel.Emission{Samples: wave, Link: link, Offset: 60})
	s, ok := NewSynchronizer(cfg).Measure(rx, 60, 4, link.FreqOffset*0.99)
	if !ok {
		t.Fatal("no sync")
	}
	s.Freq = link.FreqOffset
	return cfg, rx, wave, s
}

// requireZeroAllocs pins a hot-path operation to zero steady-state
// allocations after one warm-up call has grown the scratch buffers.
func requireZeroAllocs(t *testing.T, name string, op func()) {
	t.Helper()
	op() // warm up: grow scratch to steady-state size
	if n := testing.AllocsPerRun(50, op); n != 0 {
		t.Errorf("%s: %v allocations per run in steady state, want 0", name, n)
	}
}

// TestSubtractAllocFree pins the zero-allocation guarantee of the
// re-encode/subtract engine: once a modeler's scratch has reached
// steady state, Subtract and RefineSpan allocate nothing.
func TestSubtractAllocFree(t *testing.T) {
	cfg, rx, wave, s := allocScenario(t, 211)
	m := NewModeler(cfg, s)
	if err := m.FitISI(rx, wave, 0, 600); err != nil {
		t.Fatal(err)
	}
	res := dsp.Clone(rx)
	requireZeroAllocs(t, "Modeler.Subtract", func() {
		m.Subtract(res, wave, 800, 1200)
	})
	requireZeroAllocs(t, "Modeler.RefineSpan", func() {
		copy(res, rx)
		snap := m.State()
		m.Subtract(res, wave, 800, 1200)
		m.RefineSpan(res, wave, 800, 1200, snap)
	})
}

// TestDecodeRangeAllocFree pins the zero-allocation guarantee of the
// black-box decoder: with the chip/raw/decision scratch grown, a
// steady-state DecodeRange allocates nothing (forward and reverse).
func TestDecodeRangeAllocFree(t *testing.T) {
	cfg, rx, _, s := allocScenario(t, 223)
	d := NewSymbolDecoder(cfg, s, modem.BPSK)
	if err := d.TrainEqualizer(rx, cfg.PreambleSymbols(), 0); err != nil {
		t.Fatal(err)
	}
	pre := cfg.PreambleBits
	requireZeroAllocs(t, "SymbolDecoder.DecodeRange", func() {
		d.DecodeRange(rx, pre, pre+200, false)
	})
	requireZeroAllocs(t, "SymbolDecoder.DecodeRange(reverse)", func() {
		d.DecodeRange(rx, pre, pre+200, true)
	})
}

// buildImageRef is the per-sample reference for Modeler.BuildImage: the
// chips outside [chipFrom, chipTo) are zeroed in a clone, the clone is
// evaluated with Interpolator.At on the image's sample grid, filtered by
// the fitted ISI model and rotated by cmplx.Exp of the ramp per sample.
func buildImageRef(m *Modeler, chips []complex128, chipFrom, chipTo int) ([]complex128, int) {
	n0, n1 := m.chunkSampleRange(chipFrom, chipTo)
	masked := make([]complex128, len(chips))
	copy(masked[chipFrom:chipTo], chips[chipFrom:chipTo])
	w := make([]complex128, n1-n0)
	for n := n0; n < n1; n++ {
		w[n-n0] = m.interp.At(masked, float64(n)-m.sync.Start)
	}
	img := m.g.Apply(make([]complex128, len(w)), w)
	for i := range img {
		img[i] *= cmplx.Exp(complex(0, m.ramp(float64(n0+i))))
	}
	return img, n0
}

// TestBuildImagePolyphaseMatchesNaive pins the polyphase re-encode
// engine against the per-sample reference on a full modeler (aligned
// wave + masked chips + ISI filter + rotation ramp): the two images
// must agree to ≤1e−9 of the image scale.
func TestBuildImagePolyphaseMatchesNaive(t *testing.T) {
	cfg, rx, wave, s := allocScenario(t, 227)
	m := NewModeler(cfg, s)
	if err := m.FitISI(rx, wave, 0, 600); err != nil {
		t.Fatal(err)
	}
	fast, n0f := m.BuildImage(wave, 800, 1200)
	naive, n0n := buildImageRef(m, wave, 800, 1200)
	if n0f != n0n || len(fast) != len(naive) {
		t.Fatalf("image geometry differs: (%d,%d) vs (%d,%d)", n0f, len(fast), n0n, len(naive))
	}
	_, scale := dsp.MaxAbs(naive)
	for i := range fast {
		if e := cmplx.Abs(fast[i] - naive[i]); e > 1e-9*scale {
			t.Fatalf("image[%d]: polyphase %v, naive %v (Δ=%g, scale %g)", i, fast[i], naive[i], e, scale)
		}
	}
}

// chipAt is the per-chip reference for fillRaw: interpolate chip m at
// its fractional position, remove the carrier rotation model, normalize
// by |Ĥ|.
func (d *SymbolDecoder) chipAt(rx []complex128, m int) complex128 {
	pos := d.sync.Start + float64(m)
	v := d.interp.At(rx, pos)
	s, c := math.Sincos(-d.sync.Theta(pos))
	return v * complex(c, s) * complex(d.invAmp, 0)
}

// rawSymbol is the per-symbol reference for fillRaw: the matched-filter
// output for symbol k (mean of its chips), before equalization and phase
// tracking. Symbol 0 is the first preamble symbol.
func (d *SymbolDecoder) rawSymbol(rx []complex128, k int) complex128 {
	sps := d.cfg.SamplesPerSymbol
	var acc complex128
	for j := 0; j < sps; j++ {
		acc += d.chipAt(rx, k*sps+j)
	}
	return acc / complex(float64(sps), 0)
}

// TestDecodeRangePolyphaseMatchesNaive checks that the polyphase chip
// path leaves the decoder's decisions unchanged and its soft outputs
// within rounding of the per-sample reference, whose raw symbols come
// from rawSymbol (Interpolator.At per chip).
func TestDecodeRangePolyphaseMatchesNaive(t *testing.T) {
	cfg, rx, _, s := allocScenario(t, 229)
	pre := cfg.PreambleBits
	trained := func() *SymbolDecoder {
		d := NewSymbolDecoder(cfg, s, modem.BPSK)
		if err := d.TrainEqualizer(rx, cfg.PreambleSymbols(), 0); err != nil {
			t.Fatal(err)
		}
		return d
	}
	fd, fs := trained().DecodeRange(rx, pre, pre+200, false)
	ref := trained()
	raw := make([]complex128, 200+2*cfg.EqTaps)
	for i := range raw {
		raw[i] = ref.rawSymbol(rx, pre-cfg.EqTaps+i)
	}
	nd, ns := ref.decodeRaw(raw, pre, pre+200, false)
	for i := range fd {
		if fd[i] != nd[i] {
			t.Fatalf("decision %d differs: polyphase %v, naive %v", i, fd[i], nd[i])
		}
		if e := cmplx.Abs(fs[i] - ns[i]); e > 1e-9 {
			t.Fatalf("soft %d: polyphase %v, naive %v (Δ=%g)", i, fs[i], ns[i], e)
		}
	}
}

// TestFitISIChunkPastResidual is the regression for a chunk whose
// sample span starts past the residual's end: clipping left an inverted
// span, and evaluating the wave over it panicked on a negative grid
// length. It must report ErrSingular, the same error EstimateFIR gives
// for any span too short to fit.
func TestFitISIChunkPastResidual(t *testing.T) {
	cfg, rx, wave, s := allocScenario(t, 231)
	m := NewModeler(cfg, s)
	for _, n := range []int{0, 100, 700} {
		if err := m.FitISI(rx[:n], wave, 800, 1200); err != dsp.ErrSingular {
			t.Fatalf("residual of %d samples: FitISI = %v, want ErrSingular", n, err)
		}
	}
	if m.ISIFitted() {
		t.Fatal("a rejected fit marked the ISI model fitted")
	}
}

// TestFitISIAllocFree pins the zero-allocation guarantee of the
// re-encoding channel fit: once the modeler's derotation buffer and
// least-squares arenas have grown, repeated FitISI calls allocate
// nothing (the hot case when links churn and shapes refit per trial).
func TestFitISIAllocFree(t *testing.T) {
	cfg, rx, wave, s := allocScenario(t, 233)
	m := NewModeler(cfg, s)
	requireZeroAllocs(t, "Modeler.FitISI", func() {
		if err := m.FitISI(rx, wave, 0, 600); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTrainEqualizerAllocFree pins the zero-allocation guarantee of
// equalizer training: the raw-symbol cache, the target buffer and the
// solver scratch are all decoder-owned, so steady-state retraining
// allocates nothing.
func TestTrainEqualizerAllocFree(t *testing.T) {
	cfg, rx, _, s := allocScenario(t, 239)
	d := NewSymbolDecoder(cfg, s, modem.BPSK)
	known := cfg.PreambleSymbols()
	requireZeroAllocs(t, "SymbolDecoder.TrainEqualizer", func() {
		if err := d.TrainEqualizer(rx, known, 0); err != nil {
			t.Fatal(err)
		}
	})
}

// TestShapeRoundTripAllocFree pins the zero-allocation guarantee of the
// link-shape hand-off: on a warmed modeler, a refit, Shape into a
// caller-owned buffer and SetShape into the modeler's own tap backing
// allocate nothing.
func TestShapeRoundTripAllocFree(t *testing.T) {
	cfg, rx, wave, s := allocScenario(t, 243)
	m := NewModeler(cfg, s)
	var shapeBuf []complex128
	requireZeroAllocs(t, "FitISI→Shape→SetShape", func() {
		if err := m.FitISI(rx, wave, 0, 600); err != nil {
			t.Fatal(err)
		}
		shape, ok := m.Shape(shapeBuf)
		if !ok {
			t.Fatal("no shape after fit")
		}
		shapeBuf = shape.Taps
		m.SetShape(shape)
	})
}

// TestTrainEqualizerFillRawMatchesRawSymbol pins the training input:
// equalizer taps trained on fillRaw's polyphase raw symbols agree with
// taps trained on the per-chip rawSymbol reference to 1e-12 (relative
// L2).
func TestTrainEqualizerFillRawMatchesRawSymbol(t *testing.T) {
	for _, seed := range []int64{257, 263, 269} {
		cfg, rx, _, s := allocScenario(t, seed)
		known := cfg.PreambleSymbols()
		d := NewSymbolDecoder(cfg, s, modem.BPSK)
		if err := d.TrainEqualizer(rx, known, 0); err != nil {
			t.Fatal(err)
		}
		tw := cfg.EqTaps
		raw := make([]complex128, len(known)+2*tw)
		for i := range raw {
			raw[i] = d.rawSymbol(rx, i-tw)
		}
		y := make([]complex128, len(raw))
		copy(y[tw:], known)
		var lsq dsp.LSQ
		ref, err := lsq.EstimateFIR(raw, y, tw, tw+len(known), tw)
		if err != nil {
			t.Fatal(err)
		}
		if dist := relL2(d.eq, ref.Taps); dist > 1e-12 {
			t.Fatalf("seed %d: fillRaw taps %v, rawSymbol taps %v (relative L2 %.3g)", seed, d.eq, ref.Taps, dist)
		}
	}
}

// subtractRefine subtracts chips [from, to) and refines the span against
// the state it was subtracted with, as the joint decoder does; it
// returns the measured phase error.
func subtractRefine(m *Modeler, res, chips []complex128, from, to int) float64 {
	snap := m.State()
	m.Subtract(res, chips, from, to)
	return m.RefineSpan(res, chips, from, to, snap)
}

// TestReinitMatchesNew pins the pooling contract: a Modeler/
// SymbolDecoder recycled through Reinit onto a new scenario behaves
// bit-identically to a freshly constructed one, even after the recycled
// instance accumulated scratch and state on a different scenario.
func TestReinitMatchesNew(t *testing.T) {
	cfgA, rxA, waveA, sA := allocScenario(t, 241)
	cfgB, rxB, waveB, sB := allocScenario(t, 251)

	// Dirty a modeler and decoder on scenario A.
	used := NewModeler(cfgA, sA)
	if err := used.FitISI(rxA, waveA, 0, 600); err != nil {
		t.Fatal(err)
	}
	subtractRefine(used, dsp.Clone(rxA), waveA, 800, 1200)
	usedDec := NewSymbolDecoder(cfgA, sA, modem.BPSK)
	if err := usedDec.TrainEqualizer(rxA, cfgA.PreambleSymbols(), 0); err != nil {
		t.Fatal(err)
	}
	usedDec.DecodeRange(rxA, cfgA.PreambleBits, cfgA.PreambleBits+100, false)

	// Recycle onto scenario B and compare with fresh instances.
	used.Reinit(cfgB, sB)
	fresh := NewModeler(cfgB, sB)
	for _, m := range []*Modeler{used, fresh} {
		if err := m.FitISI(rxB, waveB, 0, 600); err != nil {
			t.Fatal(err)
		}
	}
	resUsed, resFresh := dsp.Clone(rxB), dsp.Clone(rxB)
	dUsed := subtractRefine(used, resUsed, waveB, 800, 1200)
	dFresh := subtractRefine(fresh, resFresh, waveB, 800, 1200)
	if dUsed != dFresh || used.State() != fresh.State() {
		t.Fatalf("Subtract+RefineSpan: recycled dphi %v state %+v, fresh dphi %v state %+v",
			dUsed, used.State(), dFresh, fresh.State())
	}
	for i := range resUsed {
		if resUsed[i] != resFresh[i] {
			t.Fatalf("residual[%d]: recycled %v, fresh %v", i, resUsed[i], resFresh[i])
		}
	}

	usedDec.Reinit(cfgB, sB, modem.BPSK)
	freshDec := NewSymbolDecoder(cfgB, sB, modem.BPSK)
	for _, d := range []*SymbolDecoder{usedDec, freshDec} {
		if err := d.TrainEqualizer(rxB, cfgB.PreambleSymbols(), 0); err != nil {
			t.Fatal(err)
		}
	}
	pre := cfgB.PreambleBits
	decU, softU := usedDec.DecodeRange(rxB, pre, pre+150, false)
	decF, softF := freshDec.DecodeRange(rxB, pre, pre+150, false)
	for i := range decU {
		if decU[i] != decF[i] || softU[i] != softF[i] {
			t.Fatalf("symbol %d: recycled (%v,%v), fresh (%v,%v)", i, decU[i], softU[i], decF[i], softF[i])
		}
	}
}

// TestReceiverSoftViewContract pins the no-copy exposure of soft
// decisions: DecodeResult.Decisions/Soft alias the receiver's decode
// arenas (same backing array across decodes once grown), repeated
// decodes do not allocate fresh slices for them, and the values stay
// correct under arena reuse — a dirtied receiver reproduces a fresh
// receiver's outputs exactly.
func TestReceiverSoftViewContract(t *testing.T) {
	cfg, rx, _, s := allocScenario(t, 301)
	r := NewReceiver(cfg)
	const totalBits = 1000
	res1 := r.DecodeKnownLength(rx, s, modem.BPSK, totalBits)
	if len(res1.Soft) == 0 || len(res1.Decisions) != len(res1.Soft) {
		t.Fatalf("no soft output: %d dec, %d soft", len(res1.Decisions), len(res1.Soft))
	}
	// Copy out, then decode again: views must reuse the same backing.
	wantSoft := append([]complex128(nil), res1.Soft...)
	wantDec := append([]complex128(nil), res1.Decisions...)
	res2 := r.DecodeKnownLength(rx, s, modem.BPSK, totalBits)
	if &res1.Soft[0] != &res2.Soft[0] || &res1.Decisions[0] != &res2.Decisions[0] {
		t.Error("repeated decode did not reuse the receiver's arenas")
	}
	for i := range wantSoft {
		if res2.Soft[i] != wantSoft[i] || res2.Decisions[i] != wantDec[i] {
			t.Fatalf("symbol %d changed across arena reuse", i)
		}
	}
	// A fresh receiver agrees bit for bit (arena reuse is invisible).
	fresh := NewReceiver(cfg).DecodeKnownLength(rx, s, modem.BPSK, totalBits)
	for i := range wantSoft {
		if fresh.Soft[i] != wantSoft[i] {
			t.Fatalf("fresh receiver soft %d differs", i)
		}
	}
}
