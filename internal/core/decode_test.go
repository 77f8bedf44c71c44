package core

import (
	"math"
	"math/rand"
	"testing"

	"zigzag/internal/bitutil"
	"zigzag/internal/channel"
	"zigzag/internal/dsp"
	"zigzag/internal/frame"
	"zigzag/internal/modem"
	"zigzag/internal/phy"
)

// scenario builds hidden-terminal collision traces for tests: nColl
// receptions of the same packets at the given per-reception offsets.
type scenario struct {
	cfg    Config
	frames []*frame.Frame
	links  []*channel.Params
	waves  [][]complex128
	metas  []PacketMeta
	truth  [][]byte // true frame bits per packet
}

func newScenario(t testing.TB, seed int64, payload int, snrsDB []float64, freqs []float64, noise float64) *scenario {
	t.Helper()
	s := &scenario{cfg: DefaultConfig()}
	r := rand.New(rand.NewSource(seed))
	tx := phy.NewTransmitter(s.cfg.PHY)
	for i, snr := range snrsDB {
		p := make([]byte, payload)
		r.Read(p)
		f := &frame.Frame{Src: uint8(i + 1), Dst: 99, Seq: uint16(100 + i), Scheme: modem.BPSK, Payload: p}
		s.frames = append(s.frames, f)
		link := channel.RandomParams(r, snr, noise, 0, 0.4, channel.TypicalISI(1))
		link.FreqOffset = freqs[i]
		s.links = append(s.links, link)
		w, err := tx.Waveform(f)
		if err != nil {
			t.Fatal(err)
		}
		s.waves = append(s.waves, w)
		bits, _ := f.Bits(nil)
		s.truth = append(s.truth, bits)
		// The AP's coarse frequency estimate carries a 2% residual error.
		s.metas = append(s.metas, PacketMeta{Scheme: modem.BPSK, Freq: freqs[i] * 0.98})
	}
	return s
}

// collide renders one reception with the packets at the given sample
// offsets and builds the occurrence list from honest preamble detection
// (falling back to Measure at the true position, which the matching
// stage would have provided).
func (s *scenario) collide(t testing.TB, rng *rand.Rand, noise float64, offsets []int) *Reception {
	t.Helper()
	maxEnd := 0
	var ems []channel.Emission
	for i, off := range offsets {
		if off < 0 {
			continue // packet absent from this reception
		}
		ems = append(ems, channel.Emission{Samples: s.waves[i], Link: s.links[i], Offset: off})
		if end := off + len(s.waves[i]); end > maxEnd {
			maxEnd = end
		}
	}
	air := &channel.Air{NoisePower: noise, Rng: rng, RandomizePhase: true}
	rx := air.Mix(maxEnd+80, ems...)
	rec := &Reception{Samples: rx}
	sy := phy.NewSynchronizer(s.cfg.PHY)
	for i, off := range offsets {
		if off < 0 {
			continue
		}
		sync, ok := sy.Measure(rx, off, 3, s.metas[i].Freq)
		if !ok {
			t.Fatalf("packet %d not detectable at %d", i, off)
		}
		rec.Packets = append(rec.Packets, Occurrence{Packet: i, Sync: sync})
	}
	return rec
}

func (s *scenario) checkBER(t *testing.T, res *Result, maxBER float64) {
	t.Helper()
	for i := range res.Packets {
		ber := bitutil.BitErrorRate(s.truth[i], res.Packets[i].Bits)
		if ber > maxBER {
			t.Errorf("packet %d BER %.5f > %.5f (err=%v)", i, ber, maxBER, res.Packets[i].Err)
		}
	}
}

func TestPairwiseZigZagCanonical(t *testing.T) {
	// Fig 1-2: Alice and Bob, equal power, two collisions with different
	// offsets. Both packets must decode with near-zero BER.
	const noise = 0.05 // 13 dB at SNR 13
	s := newScenario(t, 1, 400, []float64{13, 13}, []float64{0.003, -0.002}, noise)
	rng := rand.New(rand.NewSource(2))
	rec1 := s.collide(t, rng, noise, []int{40, 40 + 900})
	rec2 := s.collide(t, rng, noise, []int{40, 40 + 350})
	res, err := Decode(s.cfg, s.metas, []*Reception{rec1, rec2})
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range res.Packets {
		if !pr.OK() {
			t.Errorf("packet %d failed: %v (source=%q complete=%v)", i, pr.Err, pr.Source, pr.Complete)
			continue
		}
		if !frame.SamePacket(pr.Frame, s.frames[i]) {
			t.Errorf("packet %d content mismatch", i)
		}
	}
	s.checkBER(t, res, 0)
}

func TestPairwiseFlippedOrder(t *testing.T) {
	// Fig 4-1b: the packets swap order between the two collisions.
	const noise = 0.05
	s := newScenario(t, 3, 300, []float64{13, 13}, []float64{0.004, -0.003}, noise)
	rng := rand.New(rand.NewSource(4))
	rec1 := s.collide(t, rng, noise, []int{40, 40 + 700})
	rec2 := s.collide(t, rng, noise, []int{40 + 500, 40})
	res, err := Decode(s.cfg, s.metas, []*Reception{rec1, rec2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllOK() {
		t.Fatalf("flipped order failed: %v / %v", res.Packets[0].Err, res.Packets[1].Err)
	}
	s.checkBER(t, res, 0)
}

func TestPairwiseDifferentSizes(t *testing.T) {
	// Fig 4-1c: packets of different sizes.
	const noise = 0.05
	s := &scenario{cfg: DefaultConfig()}
	r := rand.New(rand.NewSource(5))
	tx := phy.NewTransmitter(s.cfg.PHY)
	for i, payload := range []int{500, 180} {
		p := make([]byte, payload)
		r.Read(p)
		f := &frame.Frame{Src: uint8(i + 1), Dst: 99, Seq: uint16(7 + i), Scheme: modem.BPSK, Payload: p}
		s.frames = append(s.frames, f)
		link := channel.RandomParams(r, 14, noise, 0, 0.3, channel.TypicalISI(1))
		link.FreqOffset = []float64{0.002, -0.004}[i]
		s.links = append(s.links, link)
		w, _ := tx.Waveform(f)
		s.waves = append(s.waves, w)
		bits, _ := f.Bits(nil)
		s.truth = append(s.truth, bits)
		s.metas = append(s.metas, PacketMeta{Scheme: modem.BPSK, Freq: link.FreqOffset * 0.98})
	}
	rng := rand.New(rand.NewSource(6))
	rec1 := s.collide(t, rng, noise, []int{40, 40 + 800})
	rec2 := s.collide(t, rng, noise, []int{40, 40 + 300})
	res, err := Decode(s.cfg, s.metas, []*Reception{rec1, rec2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllOK() {
		t.Fatalf("different sizes failed: %v / %v", res.Packets[0].Err, res.Packets[1].Err)
	}
	s.checkBER(t, res, 0)
}

func TestSingleCollisionWithSoloRetransmission(t *testing.T) {
	// Fig 4-1f: one collision plus Bob's collision-free retransmission.
	// ZigZag decodes Bob from the solo reception, subtracts him from the
	// collision, and recovers Alice from a single collision.
	const noise = 0.05
	s := newScenario(t, 7, 300, []float64{13, 13}, []float64{0.003, -0.002}, noise)
	rng := rand.New(rand.NewSource(8))
	coll := s.collide(t, rng, noise, []int{40, 40 + 400})
	solo := s.collide(t, rng, noise, []int{-1, 40})
	res, err := Decode(s.cfg, s.metas, []*Reception{coll, solo})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllOK() {
		t.Fatalf("solo-retransmission pattern failed: %v / %v", res.Packets[0].Err, res.Packets[1].Err)
	}
	s.checkBER(t, res, 0)
}

func TestCaptureInterferenceCancellation(t *testing.T) {
	// Fig 4-1e: Alice 11 dB above Bob — a single collision suffices:
	// decode Alice through Bob's weak interference, subtract, decode
	// Bob. (At much larger gaps single-collision IC legitimately fails —
	// the paper's "excessively high power" regime of §4.1/Fig 4-1d — and
	// the receiver falls back to collision pairs; the Fig 5-4 benchmark
	// sweeps across that crossover.)
	const noise = 0.02
	s := newScenario(t, 9, 300, []float64{24, 13}, []float64{0.002, -0.003}, noise)
	rng := rand.New(rand.NewSource(10))
	coll := s.collide(t, rng, noise, []int{40, 40 + 300})
	res, err := Decode(s.cfg, s.metas, []*Reception{coll})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllOK() {
		t.Fatalf("capture IC failed: alice=%v bob=%v", res.Packets[0].Err, res.Packets[1].Err)
	}
	s.checkBER(t, res, 0)
}

func TestIdenticalOffsetsStall(t *testing.T) {
	// Two collisions with identical offsets give the scheduler no
	// bootstrap chunk: decoding must fail gracefully, not loop or panic.
	const noise = 0.05
	s := newScenario(t, 11, 200, []float64{13, 13}, []float64{0.003, -0.002}, noise)
	rng := rand.New(rand.NewSource(12))
	rec1 := s.collide(t, rng, noise, []int{40, 40 + 500})
	rec2 := s.collide(t, rng, noise, []int{40, 40 + 500})
	res, err := Decode(s.cfg, s.metas, []*Reception{rec1, rec2})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllOK() {
		t.Fatal("identical offsets should not fully decode")
	}
}

func TestThreeCollisionsThreeSenders(t *testing.T) {
	// §4.5 / Fig 4-6a: three senders, three collisions with distinct
	// offset patterns.
	const noise = 0.05
	s := newScenario(t, 13, 250, []float64{13, 13, 13}, []float64{0.003, -0.002, 0.001}, noise)
	rng := rand.New(rand.NewSource(14))
	recs := []*Reception{
		s.collide(t, rng, noise, []int{40, 40 + 700, 40 + 1400}),
		s.collide(t, rng, noise, []int{40, 40 + 300, 40 + 2100}),
		s.collide(t, rng, noise, []int{40 + 900, 40, 40 + 1800}),
	}
	res, err := Decode(s.cfg, s.metas, recs)
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range res.Packets {
		if !pr.OK() {
			t.Errorf("packet %d failed: %v", i, pr.Err)
		}
	}
	s.checkBER(t, res, 0)
}

func TestForwardOnlyAblation(t *testing.T) {
	// DisableBackward still decodes; backward arrays stay empty.
	const noise = 0.05
	s := newScenario(t, 15, 250, []float64{14, 14}, []float64{0.003, -0.002}, noise)
	s.cfg.DisableBackward = true
	rng := rand.New(rand.NewSource(16))
	rec1 := s.collide(t, rng, noise, []int{40, 40 + 600})
	rec2 := s.collide(t, rng, noise, []int{40, 40 + 250})
	res, err := Decode(s.cfg, s.metas, []*Reception{rec1, rec2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllOK() {
		t.Fatalf("forward-only failed: %v / %v", res.Packets[0].Err, res.Packets[1].Err)
	}
	for i := range res.Packets {
		if res.Packets[i].BitsBackward != nil {
			t.Errorf("packet %d has backward bits despite DisableBackward", i)
		}
		if res.Packets[i].Source == "mrc" {
			t.Errorf("packet %d used MRC despite DisableBackward", i)
		}
	}
}

func TestDecodeInputValidation(t *testing.T) {
	if _, err := Decode(DefaultConfig(), nil, nil); err == nil {
		t.Fatal("empty input should error")
	}
	rec := &Reception{Samples: make([]complex128, 100), Packets: []Occurrence{{Packet: 5}}}
	if _, err := Decode(DefaultConfig(), []PacketMeta{{Scheme: modem.BPSK}}, []*Reception{rec}); err == nil {
		t.Fatal("out-of-range packet index should error")
	}
}

func TestIntervalSubtractAll(t *testing.T) {
	iv := interval{0, 100}
	out := iv.subtractAll([]interval{{10, 20}, {50, 60}, {200, 300}, {15, 55}})
	want := []interval{{0, 10}, {60, 100}}
	if len(out) != len(want) {
		t.Fatalf("got %v", out)
	}
	for i := range want {
		if math.Abs(out[i].Lo-want[i].Lo) > 1e-12 || math.Abs(out[i].Hi-want[i].Hi) > 1e-12 {
			t.Fatalf("piece %d = %v, want %v", i, out[i], want[i])
		}
	}
	if !(interval{5, 5}).empty() {
		t.Fatal("degenerate interval should be empty")
	}
}

// waveEnergy is a helper asserting residual suppression for debugging
// regressions in the subtraction chain.
func TestResidualAfterFullDecode(t *testing.T) {
	const noise = 0.02
	s := newScenario(t, 17, 300, []float64{16, 16}, []float64{0.002, -0.003}, noise)
	rng := rand.New(rand.NewSource(18))
	rec1 := s.collide(t, rng, noise, []int{40, 40 + 600})
	rec2 := s.collide(t, rng, noise, []int{40, 40 + 250})
	d, err := newDecoder(s.cfg, s.metas, []*Reception{rec1, rec2})
	if err != nil {
		t.Fatal(err)
	}
	d.runForward()
	// After the forward pass, every committed chip eventually gets
	// subtracted; the residual power over fully-processed regions should
	// sit near the noise floor (within ~6 dB).
	for _, r := range d.recs {
		lo := 80
		hi := len(r.res) - 80
		// Only check regions where both packets were subtracted.
		minSub := len(r.res)
		for _, o := range r.occs {
			end := int(o.sync.Start) + o.subChip
			if end < minSub {
				minSub = end
			}
		}
		if minSub < hi {
			hi = minSub
		}
		if hi-lo < 200 {
			continue
		}
		p := dsp.Power(r.res[lo:hi])
		if p > noise*6 {
			t.Errorf("rec %d residual power %.4f ≫ noise %.4f", r.id, p, noise)
		}
	}
}
