package phy

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"zigzag/internal/channel"
	"zigzag/internal/dsp"
	"zigzag/internal/modem"
)

// benchScenario builds the standing fixture for the decode-path
// benchmarks: a 200-byte BPSK frame pushed through a realistic link
// (gain, frequency offset, fractional sampling offset, mild ISI) and
// synchronized, exactly the state the joint decoder holds when it
// re-encodes and subtracts chunks.
func benchScenario(b *testing.B, seed int64) (Config, []complex128, []complex128, Sync) {
	b.Helper()
	cfg := Default()
	r := rand.New(rand.NewSource(seed))
	f := testFrame(r, 200, modem.BPSK)
	wave, err := NewTransmitter(cfg).Waveform(f)
	if err != nil {
		b.Fatal(err)
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
		b.Fatal("no sync")
	}
	s.Freq = link.FreqOffset
	return cfg, rx, wave, s
}

// BenchmarkBuildImage measures the chunk re-encode kernel: render the
// received image of a 400-chip chunk (§4.2.3b), including the
// fractional-delay alignment, ISI filtering, and the carrier rotation
// ramp.
func BenchmarkBuildImage(b *testing.B) {
	cfg, rx, wave, s := benchScenario(b, 101)
	m := NewModeler(cfg, s)
	if err := m.FitISI(rx, wave, 0, 600); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, _ := m.BuildImage(wave, 800, 1200)
		_ = img
	}
}

// BenchmarkTrackAndSubtract measures the full §4.2.4b subtraction step:
// build the chunk image, measure and apply the phase/magnitude
// correction, subtract, and update the frequency estimate.
func BenchmarkTrackAndSubtract(b *testing.B) {
	cfg, rx, wave, s := benchScenario(b, 103)
	m := NewModeler(cfg, s)
	if err := m.FitISI(rx, wave, 0, 600); err != nil {
		b.Fatal(err)
	}
	res := dsp.Clone(rx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrackAndSubtract(res, wave, 800, 1200)
		if i&0xf == 0xf {
			copy(res, rx) // keep the residual from drifting to -inf
		}
	}
}

// BenchmarkSubtract measures the no-tracking re-subtraction used when a
// packet is removed from a third collision (§4.5).
func BenchmarkSubtract(b *testing.B) {
	cfg, rx, wave, s := benchScenario(b, 105)
	m := NewModeler(cfg, s)
	res := dsp.Clone(rx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Subtract(res, wave, 800, 1200)
		if i&0xf == 0xf {
			copy(res, rx)
		}
	}
}

// BenchmarkDecodeRange measures the black-box decoder on a 200-symbol
// chunk: fractional-delay chip estimation, matched filtering,
// equalization, and the decision-directed PLL.
func BenchmarkDecodeRange(b *testing.B) {
	cfg, rx, _, s := benchScenario(b, 107)
	d := NewSymbolDecoder(cfg, s, modem.BPSK)
	if err := d.TrainEqualizer(rx, cfg.PreambleSymbols(), 0); err != nil {
		b.Fatal(err)
	}
	pre := cfg.PreambleBits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.DecodeRange(rx, pre, pre+200, false)
	}
}

// BenchmarkFitISI measures the re-encoding ISI fit (§4.2.4d) over a
// 440-chip clean stretch, about 440 rows of the sliding-window
// least-squares system: aligned wave, derotated residual, Gram matrix
// and Cholesky solve.
func BenchmarkFitISI(b *testing.B) {
	cfg, rx, wave, s := benchScenario(b, 111)
	m := NewModeler(cfg, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.FitISI(rx, wave, 0, 440); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainEqualizer measures symbol-spaced equalizer training on
// the 32-symbol preamble: polyphase raw symbols, the least-squares fit
// and the post-fit validation.
func BenchmarkTrainEqualizer(b *testing.B) {
	cfg, rx, _, s := benchScenario(b, 113)
	d := NewSymbolDecoder(cfg, s, modem.BPSK)
	known := cfg.PreambleSymbols()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.TrainEqualizer(rx, known, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShiftDrift measures the channel model's drifting-offset
// resampler, the per-trial cost of realizing a clock-skewed link
// (§3.1.2).
func BenchmarkShiftDrift(b *testing.B) {
	r := rand.New(rand.NewSource(109))
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	ip := dsp.Interpolator{Taps: 4}
	dst := make([]complex128, len(x))
	b.ReportAllocs()
	b.SetBytes(int64(len(x) * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ip.ShiftDrift(dst, x, 0.37, 2e-5)
	}
}
