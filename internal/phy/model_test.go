package phy

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"zigzag/internal/channel"
	"zigzag/internal/dsp"
	"zigzag/internal/frame"
	"zigzag/internal/modem"
)

func modelerScenario(t *testing.T, link *channel.Params, noise float64, seed int64) (Config, []complex128, []complex128, Sync) {
	t.Helper()
	cfg := Default()
	r := rand.New(rand.NewSource(seed))
	f := testFrame(r, 200, modem.BPSK)
	wave, err := NewTransmitter(cfg).Waveform(f)
	if err != nil {
		t.Fatal(err)
	}
	air := &channel.Air{NoisePower: noise, Rng: rand.New(rand.NewSource(seed + 1))}
	rx := air.Mix(len(wave)+120, channel.Emission{Samples: wave, Link: link, Offset: 60})
	s, ok := NewSynchronizer(cfg).Measure(rx, 60, 4, link.FreqOffset*0.99)
	if !ok {
		t.Fatal("no sync")
	}
	return cfg, rx, wave, s
}

func TestModelerShapeNormalized(t *testing.T) {
	link := &channel.Params{Gain: cmplx.Rect(0.9, 1.2), ISI: channel.TypicalISI(1)}
	cfg, rx, wave, s := modelerScenario(t, link, 1e-4, 41)
	m := NewModeler(cfg, s)
	if _, ok := m.Shape(nil); ok {
		t.Fatal("shape available before fit")
	}
	if err := m.FitISI(rx, wave, 0, 500); err != nil {
		t.Fatal(err)
	}
	shape, ok := m.Shape(nil)
	if !ok {
		t.Fatal("shape missing after fit")
	}
	if cmplx.Abs(shape.Taps[shape.Center]-1) > 1e-9 {
		t.Fatalf("centre tap %v, want 1", shape.Taps[shape.Center])
	}
	// The fitted shape should resemble the true ISI profile.
	truth := channel.TypicalISI(1)
	for l := -1; l <= 1; l++ {
		got := shape.Taps[shape.Center+l]
		want := truth.Taps[truth.Center+l]
		if cmplx.Abs(got-want) > 0.08 {
			t.Fatalf("shape tap %d = %v, want ≈%v", l, got, want)
		}
	}
}

func TestSetShapeScalesByH(t *testing.T) {
	cfg := Default()
	s := Sync{H: complex(0, 2), RefPos: 0}
	m := NewModeler(cfg, s)
	shape := dsp.NewFIR([]complex128{0.1, 1, 0.2})
	m.SetShape(shape)
	if !m.ISIFitted() {
		t.Fatal("SetShape should mark the model fitted")
	}
	g := m.Filter()
	if cmplx.Abs(g.Taps[g.Center]-complex(0, 2)) > 1e-12 {
		t.Fatalf("centre tap %v, want 2i", g.Taps[g.Center])
	}
}

func TestSetShapeHonorsDisableISIModel(t *testing.T) {
	cfg := Default()
	cfg.DisableISIModel = true
	m := NewModeler(cfg, Sync{H: 1})
	m.SetShape(dsp.NewFIR([]complex128{0.5, 1, 0.5}))
	if m.ISIFitted() {
		t.Fatal("DisableISIModel must suppress SetShape")
	}
	if err := m.FitISI(make([]complex128, 512), make([]complex128, 400), 0, 300); err != nil {
		t.Fatal("FitISI with DisableISIModel should be a silent no-op")
	}
}

func TestModelerStateSnapshot(t *testing.T) {
	cfg := Default()
	m := NewModeler(cfg, Sync{H: 1, RefPos: 100, Freq: 0.002})
	st := m.State()
	if st.Freq != 0.002 || st.AnchorPos != 100 || st.AnchorPhase != 0 {
		t.Fatalf("initial state %+v", st)
	}
}

func TestRefineSpanCorrectsStaleSubtraction(t *testing.T) {
	// Subtract with a deliberately wrong frequency, then refine against
	// the snapshot: the frequency estimate must move toward the truth
	// and the residual must shrink.
	const trueFreq = 0.003
	link := &channel.Params{Gain: 1, FreqOffset: trueFreq}
	cfg, rx, wave, s := modelerScenario(t, link, 1e-4, 43)
	s.Freq = trueFreq * 0.95 // 5% coarse error
	m := NewModeler(cfg, s)
	if err := m.FitISI(rx, wave, 0, 600); err != nil {
		t.Fatal(err)
	}
	res := dsp.Clone(rx)
	// Stale subtraction of a far-out span.
	snap := m.State()
	m.Subtract(res, wave, 2000, 2800)
	before := dsp.Power(res[60+2100 : 60+2700])
	dphi := m.RefineSpan(res, wave, 2000, 2800, snap)
	after := dsp.Power(res[60+2100 : 60+2700])
	if dphi == 0 {
		t.Fatal("refinement measured nothing")
	}
	if after > before/2 {
		t.Fatalf("residual %v -> %v: repair too weak", before, after)
	}
	// Frequency moved toward the truth.
	if math.Abs(m.Freq()-trueFreq) >= math.Abs(snap.Freq-trueFreq) {
		t.Fatalf("freq %v did not improve on %v (truth %v)", m.Freq(), snap.Freq, trueFreq)
	}
}

// TestRefineSpanImageMatchesRebuild pins the image reuse the joint
// decoder's tracker runs on: refining a span with the image Subtract
// returned gives, bit for bit, the residual, δφ and model state of
// RefineSpan rebuilding the image. Reinit, a successful FitISI and
// SetShape each change FilterGen, and after such a change the stored
// image is no longer the one RefineSpan would build.
func TestRefineSpanImageMatchesRebuild(t *testing.T) {
	const trueFreq = 0.003
	link := &channel.Params{Gain: 1, FreqOffset: trueFreq}
	cfg, rx, wave, s := modelerScenario(t, link, 1e-4, 43)
	s.Freq = trueFreq * 0.95
	build := func() (*Modeler, []complex128, []complex128, int, ModelState) {
		m := NewModeler(cfg, s)
		if err := m.FitISI(rx, wave, 0, 600); err != nil {
			t.Fatal(err)
		}
		res := dsp.Clone(rx)
		snap := m.State()
		img, n0 := m.Subtract(res, wave, 2000, 2800)
		return m, res, dsp.Clone(img), n0, snap
	}
	mA, resA, img, n0, snap := build()
	mB, resB, _, _, _ := build()
	gen := mA.FilterGen()
	dA := mA.RefineSpanImage(resA, img, n0, 2000, 2800, snap)
	dB := mB.RefineSpan(resB, wave, 2000, 2800, snap)
	if dA == 0 || math.Float64bits(dA) != math.Float64bits(dB) {
		t.Fatalf("δφ %v with the stored image, %v rebuilt", dA, dB)
	}
	if mA.State() != mB.State() {
		t.Fatalf("model state %+v with the stored image, %+v rebuilt", mA.State(), mB.State())
	}
	for i := range resA {
		if math.Float64bits(real(resA[i])) != math.Float64bits(real(resB[i])) ||
			math.Float64bits(imag(resA[i])) != math.Float64bits(imag(resB[i])) {
			t.Fatalf("residual differs at sample %d: %v vs %v", i, resA[i], resB[i])
		}
	}
	if mA.FilterGen() != gen {
		t.Fatal("refinement changed the filter generation")
	}

	// Each filter install bumps the generation, and the image it
	// subtracted before no longer matches a rebuild.
	mC, _, stored, _, snapC := build()
	shape, ok := mC.Shape(nil)
	if !ok {
		t.Fatal("no fitted shape")
	}
	bumps := []struct {
		name string
		do   func()
	}{
		{"SetShape", func() { shape.Taps[0] *= 1.5; mC.SetShape(shape) }},
		{"FitISI", func() {
			if err := mC.FitISI(rx, wave, 600, 1400); err != nil {
				t.Fatal(err)
			}
		}},
		{"Reinit", func() { mC.Reinit(cfg, s) }},
	}
	for _, b := range bumps {
		g := mC.FilterGen()
		b.do()
		if mC.FilterGen() == g {
			t.Errorf("%s left the filter generation at %d", b.name, g)
		}
	}
	rebuilt, _ := mC.buildImageWith(snapC, wave, 2000, 2800)
	same := len(rebuilt) == len(stored)
	for i := 0; same && i < len(stored); i++ {
		same = rebuilt[i] == stored[i]
	}
	if same {
		t.Error("after new filters the stored image still equals a rebuild; the test no longer shows why the generation is checked")
	}
}

func TestRefineSpanRejectsInterference(t *testing.T) {
	// A residual still full of another signal must be rejected (|c|
	// guard), leaving the model untouched.
	link := &channel.Params{Gain: 1}
	cfg, rx, wave, s := modelerScenario(t, link, 1e-4, 47)
	m := NewModeler(cfg, s)
	res := dsp.Clone(rx)
	// Do NOT subtract: the "residual" still contains the full signal,
	// plus we inject a strong interferer.
	r := rand.New(rand.NewSource(48))
	for i := range res {
		res[i] += complex(3*r.NormFloat64(), 3*r.NormFloat64())
	}
	before := m.State()
	m.RefineSpan(res, wave, 500, 1200, before)
	after := m.State()
	if math.Abs(after.Freq-before.Freq) > 1e-9 {
		t.Fatal("guard failed: freq moved on garbage measurement")
	}
}

func TestTrackingDisabledIsInert(t *testing.T) {
	cfg := Default()
	cfg.DisablePhaseTracking = true
	link := &channel.Params{Gain: 1, FreqOffset: 0.002}
	_, rx, wave, s := modelerScenario(t, link, 1e-4, 49)
	m := NewModeler(cfg, s)
	res := dsp.Clone(rx)
	if dphi := m.RefineSpan(res, wave, 0, 800, m.State()); dphi != 0 {
		t.Fatalf("RefineSpan returned %v with tracking disabled", dphi)
	}
}

func TestPreambleWaveMatchesFrameAndConfig(t *testing.T) {
	cfg := Default()
	w := cfg.PreambleWave()
	if len(w) != frame.DefaultPreambleBits*cfg.SamplesPerSymbol {
		t.Fatalf("preamble wave %d samples", len(w))
	}
	for _, v := range w {
		if v != 1 && v != -1 {
			t.Fatalf("preamble chip %v not ±1", v)
		}
	}
}

func TestTotalSamplesAccounting(t *testing.T) {
	cfg := Default()
	if cfg.TotalSymbols(modem.BPSK, 100) != cfg.PreambleBits+100 {
		t.Fatal("BPSK symbol accounting wrong")
	}
	if cfg.TotalSymbols(modem.QPSK, 100) != cfg.PreambleBits+50 {
		t.Fatal("QPSK symbol accounting wrong")
	}
	if cfg.TotalSamples(modem.BPSK, 100) != (cfg.PreambleBits+100)*2 {
		t.Fatal("sample accounting wrong")
	}
}
