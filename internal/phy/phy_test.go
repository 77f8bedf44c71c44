package phy

import (
	"bytes"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"zigzag/internal/channel"
	"zigzag/internal/dsp"
	"zigzag/internal/frame"
	"zigzag/internal/modem"
)

func testFrame(r *rand.Rand, n int, scheme modem.Scheme) *frame.Frame {
	p := make([]byte, n)
	r.Read(p)
	return &frame.Frame{Src: 1, Dst: 9, Seq: uint16(r.Intn(4096)), Scheme: scheme, Payload: p}
}

// transmit renders f through link into a buffer of extra leading/trailing
// silence, returning the buffer and the integer start offset.
func transmit(t *testing.T, cfg Config, f *frame.Frame, link *channel.Params, air *channel.Air, lead int) ([]complex128, int) {
	t.Helper()
	tx := NewTransmitter(cfg)
	wave, err := tx.Waveform(f)
	if err != nil {
		t.Fatal(err)
	}
	n := lead + len(wave) + lead
	rx := air.Mix(n, channel.Emission{Samples: wave, Link: link, Offset: lead})
	return rx, lead
}

func TestTransmitterSizes(t *testing.T) {
	cfg := Default()
	f := &frame.Frame{Scheme: modem.BPSK, Payload: make([]byte, 100)}
	wave, err := NewTransmitter(cfg).Waveform(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(wave) != cfg.TotalSamples(modem.BPSK, f.BitLen()) {
		t.Fatalf("waveform %d samples, want %d", len(wave), cfg.TotalSamples(modem.BPSK, f.BitLen()))
	}
}

func TestReceiveCleanChannel(t *testing.T) {
	cfg := Default()
	r := rand.New(rand.NewSource(1))
	f := testFrame(r, 200, modem.BPSK)
	rx, _ := transmit(t, cfg, f, &channel.Params{}, &channel.Air{}, 40)
	res, err := NewReceiver(cfg).Receive(rx, modem.BPSK, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("decode failed: %v", res.Err)
	}
	if !frame.SamePacket(res.Frame, f) {
		t.Fatal("decoded frame differs")
	}
}

func TestReceiveEachScheme(t *testing.T) {
	cfg := Default()
	r := rand.New(rand.NewSource(2))
	rng := rand.New(rand.NewSource(3))
	for _, scheme := range []modem.Scheme{modem.BPSK, modem.QPSK, modem.QAM16} {
		f := testFrame(r, 120, scheme)
		link := &channel.Params{Gain: cmplx.Rect(1.0, 0.9)}
		air := &channel.Air{NoisePower: 0.001, Rng: rng} // 30 dB
		rx, _ := transmit(t, cfg, f, link, air, 50)
		res, err := NewReceiver(cfg).Receive(rx, scheme, 0, 0, 0)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if !res.OK() {
			t.Fatalf("%v: decode failed: %v", scheme, res.Err)
		}
		if !bytes.Equal(res.Frame.Payload, f.Payload) {
			t.Fatalf("%v: payload mismatch", scheme)
		}
	}
}

func TestReceiveFullImpairments(t *testing.T) {
	// The real target: gain+phase, frequency offset, fractional sampling
	// offset, ISI, and 15 dB noise — all at once, like the testbed links.
	cfg := Default()
	r := rand.New(rand.NewSource(4))
	rng := rand.New(rand.NewSource(5))
	const noise = 0.05
	okCount := 0
	const trials = 10
	for i := 0; i < trials; i++ {
		f := testFrame(r, 400, modem.BPSK)
		link := &channel.Params{
			Gain:           cmplx.Rect(channel.SNRToGain(15, noise), rng.Float64()*2*math.Pi),
			FreqOffset:     0.004,
			SamplingOffset: 0.35,
			ISI:            channel.TypicalISI(1),
		}
		air := &channel.Air{NoisePower: noise, Rng: rng}
		rx, _ := transmit(t, cfg, f, link, air, 60)
		// The receiver knows the coarse frequency offset with a small
		// residual error, as the paper's AP does (§4.2.4b).
		res, err := NewReceiver(cfg).Receive(rx, modem.BPSK, 0.004-0.0004, 0, link.Amplitude())
		if err != nil {
			continue
		}
		if res.OK() && bytes.Equal(res.Frame.Payload, f.Payload) {
			okCount++
		}
	}
	if okCount < trials-1 {
		t.Fatalf("only %d/%d impaired decodes succeeded", okCount, trials)
	}
}

func TestPhaseTrackingNecessaryForLongPackets(t *testing.T) {
	// Table 5.1 row 2: with a residual frequency error and tracking
	// disabled, long packets fail; with tracking they succeed.
	r := rand.New(rand.NewSource(6))
	rng := rand.New(rand.NewSource(7))
	const noise = 0.01
	f := testFrame(r, 800, modem.BPSK)
	link := &channel.Params{
		Gain:       complex(channel.SNRToGain(20, noise), 0),
		FreqOffset: 0.003,
	}
	run := func(disable bool) bool {
		cfg := Default()
		cfg.DisablePhaseTracking = disable
		air := &channel.Air{NoisePower: noise, Rng: rng}
		rx, _ := transmit(t, cfg, f, link, air, 50)
		// 5% coarse estimate error leaves a residual of 1.5e-4 rad/sample.
		res, err := NewReceiver(cfg).Receive(rx, modem.BPSK, 0.003*0.95, 0, link.Amplitude())
		return err == nil && res.OK()
	}
	if !run(false) {
		t.Fatal("decode with tracking should succeed")
	}
	if run(true) {
		t.Fatal("decode without tracking should fail on a long packet")
	}
}

func TestEqualizerNecessaryUnderISI(t *testing.T) {
	// Decoder-side counterpart of the Table 5.1 ISI ablation. BPSK with
	// a 2-chip matched filter shrugs off the testbed's ISI (half of it
	// is intra-symbol), so the sensitivity shows at a denser
	// constellation: 16-QAM at 18 dB collapses without the equalizer and
	// is clean with it.
	r := rand.New(rand.NewSource(8))
	const noise = 0.01
	okWith, okWithout := 0, 0
	const trials = 12
	for trial := 0; trial < trials; trial++ {
		f := testFrame(r, 300, modem.QAM16)
		link := &channel.Params{
			Gain: complex(channel.SNRToGain(18, noise), 0),
			ISI:  channel.TypicalISI(1),
		}
		for _, disable := range []bool{false, true} {
			cfg := Default()
			cfg.DisableEqualizer = disable
			rng := rand.New(rand.NewSource(int64(100 + trial)))
			air := &channel.Air{NoisePower: noise, Rng: rng}
			rx, _ := transmit(t, cfg, f, link, air, 50)
			res, err := NewReceiver(cfg).Receive(rx, modem.QAM16, 0, 0, link.Amplitude())
			if err == nil && res.OK() {
				if disable {
					okWithout++
				} else {
					okWith++
				}
			}
		}
	}
	if okWith < trials-1 {
		t.Fatalf("only %d/%d decodes with equalizer", okWith, trials)
	}
	if okWithout > trials/2 {
		t.Fatalf("%d/%d decodes without equalizer; ISI should break most", okWithout, trials)
	}
}

func TestSynchronizerFindsOffsetPacket(t *testing.T) {
	cfg := Default()
	r := rand.New(rand.NewSource(9))
	f := testFrame(r, 100, modem.BPSK)
	const off = 377
	wave, _ := NewTransmitter(cfg).Waveform(f)
	air := &channel.Air{NoisePower: 0.02, Rng: rand.New(rand.NewSource(10))}
	rx := air.Mix(off+len(wave)+100, channel.Emission{Samples: wave, Offset: off})
	syncs := NewSynchronizer(cfg).Detect(rx, 0, 0, 1)
	if len(syncs) != 1 {
		t.Fatalf("found %d syncs, want 1", len(syncs))
	}
	if syncs[0].RefPos != off {
		t.Fatalf("sync at %d, want %d", syncs[0].RefPos, off)
	}
	if math.Abs(cmplx.Abs(syncs[0].H)-1) > 0.15 {
		t.Fatalf("Ĥ magnitude %v, want ≈1", cmplx.Abs(syncs[0].H))
	}
}

func TestMeasureRefinesKnownPosition(t *testing.T) {
	cfg := Default()
	r := rand.New(rand.NewSource(11))
	f := testFrame(r, 80, modem.BPSK)
	wave, _ := NewTransmitter(cfg).Waveform(f)
	air := &channel.Air{}
	rx := air.Mix(200+len(wave), channel.Emission{Samples: wave, Offset: 120})
	sy := NewSynchronizer(cfg)
	s, ok := sy.Measure(rx, 118, 5, 0)
	if !ok || s.RefPos != 120 {
		t.Fatalf("Measure = %+v ok=%v, want pos 120", s, ok)
	}
	if _, ok := sy.Measure(rx[:10], 0, 5, 0); ok {
		t.Fatal("Measure on tiny buffer should fail")
	}
}

func TestDecoderForkIndependence(t *testing.T) {
	cfg := Default()
	r := rand.New(rand.NewSource(12))
	f := testFrame(r, 60, modem.BPSK)
	rx, _ := transmit(t, cfg, f, &channel.Params{FreqOffset: 0.002}, &channel.Air{}, 30)
	s, ok := NewSynchronizer(cfg).Measure(rx, 30, 3, 0.002)
	if !ok {
		t.Fatal("no sync")
	}
	d := NewSymbolDecoder(cfg, s, modem.BPSK)
	fork := d.Fork()
	d.DecodeRange(rx, cfg.PreambleBits, cfg.PreambleBits+100, false)
	p1, _ := d.PLLState()
	p2, _ := fork.PLLState()
	if p1 == p2 && p1 != 0 {
		t.Fatal("fork shares PLL state")
	}
}

func TestBackwardDecodingMatchesForward(t *testing.T) {
	// On a clean channel forward and reverse decoding must agree
	// symbol-for-symbol (§4.3b relies on this symmetry).
	cfg := Default()
	r := rand.New(rand.NewSource(13))
	f := testFrame(r, 150, modem.BPSK)
	rx, _ := transmit(t, cfg, f, &channel.Params{}, &channel.Air{NoisePower: 0.01, Rng: rand.New(rand.NewSource(14))}, 30)
	s, ok := NewSynchronizer(cfg).Measure(rx, 30, 3, 0)
	if !ok {
		t.Fatal("no sync")
	}
	nsym := cfg.FrameSymbols(modem.BPSK, f.BitLen())
	d := NewSymbolDecoder(cfg, s, modem.BPSK)
	fwd, _ := d.DecodeRange(rx, cfg.PreambleBits, cfg.PreambleBits+nsym, false)
	b := d.Fork()
	bwd, _ := b.DecodeRange(rx, cfg.PreambleBits, cfg.PreambleBits+nsym, true)
	diff := 0
	for i := range fwd {
		if fwd[i] != bwd[i] {
			diff++
		}
	}
	if diff > nsym/100 {
		t.Fatalf("%d/%d symbols differ between directions", diff, nsym)
	}
}

func TestModelerSubtractionDepth(t *testing.T) {
	// The decisive ZigZag primitive: re-encode a known chunk and
	// subtract it. The residual must drop to near the noise floor even
	// through a full impairment chain.
	cfg := Default()
	r := rand.New(rand.NewSource(15))
	f := testFrame(r, 300, modem.BPSK)
	tx := NewTransmitter(cfg)
	wave, _ := tx.Waveform(f)
	link := &channel.Params{
		Gain:           cmplx.Rect(1, 0.7),
		FreqOffset:     0.003,
		SamplingOffset: 0.3,
		ISI:            channel.TypicalISI(1),
	}
	const noise = 1e-4
	air := &channel.Air{NoisePower: noise, Rng: rand.New(rand.NewSource(16))}
	rx := air.Mix(len(wave)+120, channel.Emission{Samples: wave, Link: link, Offset: 60})
	sigPower := dsp.Power(rx[60 : 60+len(wave)])

	s, ok := NewSynchronizer(cfg).Measure(rx, 60, 4, 0.003*0.98)
	if !ok {
		t.Fatal("no sync")
	}
	m := NewModeler(cfg, s)
	// Fit ISI on the first clean stretch (chips 0..600), then subtract
	// everything chunk by chunk, refining each chunk after subtracting it.
	if err := m.FitISI(rx, wave, 0, 600); err != nil {
		t.Fatal(err)
	}
	if !m.ISIFitted() {
		t.Fatal("ISI not fitted")
	}
	res := dsp.Clone(rx)
	const chunk = 400
	for from := 0; from < len(wave); from += chunk {
		to := from + chunk
		if to > len(wave) {
			to = len(wave)
		}
		snap := m.State()
		m.Subtract(res, wave, from, to)
		m.RefineSpan(res, wave, from, to, snap)
	}
	resPower := dsp.Power(res[80 : 40+len(wave)])
	depth := dsp.DB(sigPower / resPower)
	if depth < 20 {
		t.Fatalf("subtraction depth %.1f dB, want ≥ 20 dB", depth)
	}
}

func TestDecodeKnownLengthOnGarbage(t *testing.T) {
	// Even pure noise must yield a full-length bit vector (for BER
	// accounting) and a CRC failure, never a panic.
	cfg := Default()
	rng := rand.New(rand.NewSource(18))
	rx := make([]complex128, 4000)
	(&channel.Air{NoisePower: 1, Rng: rng}).AddNoise(rx)
	s := Sync{Start: 10, RefPos: 10, H: 1}
	res := NewReceiver(cfg).DecodeKnownLength(rx, s, modem.BPSK, 800)
	if res.OK() {
		t.Fatal("garbage decoded successfully?!")
	}
	if len(res.Bits) != 800 {
		t.Fatalf("got %d bits, want 800", len(res.Bits))
	}
}

func TestDecodeTruncatedBuffer(t *testing.T) {
	cfg := Default()
	r := rand.New(rand.NewSource(19))
	f := testFrame(r, 500, modem.BPSK)
	rx, off := transmit(t, cfg, f, &channel.Params{}, &channel.Air{}, 20)
	s, _ := NewSynchronizer(cfg).Measure(rx, off, 2, 0)
	res := NewReceiver(cfg).DecodeAt(rx[:len(rx)/2], s, modem.BPSK)
	if res.OK() {
		t.Fatal("truncated decode should fail")
	}
}
