package core

import (
	"math/rand"
	"reflect"
	"testing"

	"zigzag/internal/frame"
	"zigzag/internal/phy"
)

// samePackets compares two decode outcomes field by field (bits, per
// direction, source, completeness); Frame pointers are compared by
// content.
func samePackets(t *testing.T, got, want []PacketResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("packet count %d vs %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("packet %d diverged:\n got: %+v\nwant: %+v", i, got[i], want[i])
		}
	}
}

// TestK2PairwiseSICGolden pins the k=2 contract of the generalized SIC
// framework: a two-packet decode takes the pairwise chunk order by
// construction, and it must reproduce the golden (the exact
// transmitted bits, BER 0). Both passes run on the decoder, so the
// backward schedule stays pinned too; DecodeWith, whose forward
// candidates both pass their checksums here, runs the forward pass
// alone.
func TestK2PairwiseSICGolden(t *testing.T) {
	const noise = 0.05
	s := newScenario(t, 61, 350, []float64{13, 13}, []float64{0.003, -0.002}, noise)
	rng := rand.New(rand.NewSource(62))
	rec1 := s.collide(t, rng, noise, []int{40, 40 + 800})
	rec2 := s.collide(t, rng, noise, []int{40, 40 + 320})
	recs := []*Reception{rec1, rec2}

	resGen := bothPasses(t, s.cfg, s.metas, recs)
	if !resGen.AllOK() {
		t.Fatalf("k=2 decode failed: %v / %v", resGen.Packets[0].Err, resGen.Packets[1].Err)
	}
	s.checkBER(t, resGen, 0)
	// The chunk schedule of the golden decode: any change to the
	// pairwise order shows up here first.
	if resGen.Iterations != 56 {
		t.Errorf("iterations = %d, want the golden 56", resGen.Iterations)
	}
	for i := range resGen.Packets {
		if !frame.SamePacket(resGen.Packets[i].Frame, s.frames[i]) {
			t.Errorf("packet %d content mismatch against golden", i)
		}
	}

	res, err := Decode(s.cfg, s.metas, recs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 28 {
		t.Errorf("DecodeWith iterations = %d, want the golden forward-pass 28", res.Iterations)
	}
	for i := range res.Packets {
		if pr := res.Packets[i]; !pr.OK() || pr.Source != "forward" || !frame.SamePacket(pr.Frame, s.frames[i]) {
			t.Errorf("packet %d: DecodeWith gave %v via %q, want the golden frame via forward", i, pr.Frame, pr.Source)
		}
	}
}

// TestKWayZeroPowerEmissionMatchesPair is the degenerate-k property:
// a k=3 decode in which the third emission has zero power must decode
// the two real packets bit-identically to the plain k=2 decode, with
// the phantom packet reporting failure. The k-way policy guarantees
// this by dropping zero-power occurrences at ingest — without that, the
// phantom would perturb refine windows and span bookkeeping.
func TestKWayZeroPowerEmissionMatchesPair(t *testing.T) {
	const noise = 0.05
	s := newScenario(t, 63, 300, []float64{13, 13}, []float64{0.004, -0.003}, noise)
	rng := rand.New(rand.NewSource(64))
	rec1 := s.collide(t, rng, noise, []int{40, 40 + 700})
	rec2 := s.collide(t, rng, noise, []int{40, 40 + 260})

	ref, err := Decode(s.cfg, s.metas, []*Reception{rec1, rec2})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.AllOK() {
		t.Fatalf("k=2 reference failed: %v / %v", ref.Packets[0].Err, ref.Packets[1].Err)
	}

	// The same receptions viewed as a k=3 decode: a third client is
	// believed present, but its channel is a fade to zero. The property
	// under test is the generalized policy's ingest drop.
	metas3 := append(append([]PacketMeta(nil), s.metas...), PacketMeta{Scheme: s.metas[0].Scheme})
	zero := Occurrence{Packet: 2, Sync: phy.Sync{Start: 40, RefPos: 40}}
	r1 := &Reception{Samples: rec1.Samples, Packets: append(append([]Occurrence(nil), rec1.Packets...), zero)}
	r2 := &Reception{Samples: rec2.Samples, Packets: append(append([]Occurrence(nil), rec2.Packets...), zero)}
	res, err := Decode(s.cfg, metas3, []*Reception{r1, r2})
	if err != nil {
		t.Fatal(err)
	}
	samePackets(t, res.Packets[:2], ref.Packets)
	if res.Packets[2].OK() {
		t.Fatal("zero-power phantom decoded a frame")
	}
}

// TestOnlineReceiverThreeWayStore exercises the k-way store matcher
// end to end: three equal-power senders collide three times with
// different offsets; the receiver stores the first two collisions and
// the third assembles all three receptions into one k=3 joint decode.
func TestOnlineReceiverThreeWayStore(t *testing.T) {
	const noise = 0.05
	s := newScenario(t, 13, 250, []float64{13, 13, 13}, []float64{0.003, -0.002, 0.001}, noise)
	rng := rand.New(rand.NewSource(14))

	// Retransmissions replay the same bits (§5.2): clone the scenario so
	// every render reuses the waveforms.
	replay := func() *scenario {
		s2 := &scenario{cfg: s.cfg, links: s.links, metas: s.metas, truth: s.truth}
		s2.waves = s.waves
		return s2
	}
	rx1 := s.render(t, rng, noise, []int{40, 40 + 700, 40 + 1400})
	rx2 := replay().render(t, rng, noise, []int{40, 40 + 300, 40 + 2100})
	rx3 := replay().render(t, rng, noise, []int{40 + 900, 40, 40 + 1800})

	z := NewReceiver(s.cfg, onlineClients(s))
	for _, ev := range z.Receive(rx1) {
		if ev.Frame != nil {
			t.Fatalf("first three-way collision should not decode, got src %d", ev.Frame.Src)
		}
	}
	if z.StoredCollisions() != 1 {
		t.Fatalf("stored after rx1 = %d, want 1", z.StoredCollisions())
	}
	for _, ev := range z.Receive(rx2) {
		if ev.Frame != nil {
			t.Fatalf("second three-way collision should not decode, got src %d", ev.Frame.Src)
		}
	}
	if z.StoredCollisions() != 2 {
		t.Fatalf("stored after rx2 = %d, want 2", z.StoredCollisions())
	}
	got := map[uint8]bool{}
	for _, ev := range z.Receive(rx3) {
		if ev.Frame == nil {
			t.Fatalf("undecoded packet in k=3 joint decode: %v", ev.Result.Err)
		}
		if ev.Via != ViaZigzag {
			t.Fatalf("via = %s, want zigzag", ev.Via)
		}
		got[ev.Frame.Src] = true
	}
	for i := range s.frames {
		if !got[s.frames[i].Src] {
			t.Fatalf("packet from src %d missing: got %v", s.frames[i].Src, got)
		}
	}
	if z.StoredCollisions() != 0 {
		t.Fatalf("store not drained: %d", z.StoredCollisions())
	}
}

// TestLearnAmplitudeDecay is the stale-amplitude regression (ROADMAP
// standing question): decodes that succeed before a fade leave a
// coarse Amp whose β·|Ĥ|·E detection threshold sits far above the
// faded preamble. Without aging the receiver never hears the client
// again (this loop runs forever on the old code); with decay the
// bounds relax within the forget horizon, the packet decodes, and the
// fresh estimate replaces the stale one so the next reception decodes
// immediately.
func TestLearnAmplitudeDecay(t *testing.T) {
	const noise = 0.05
	// Same seed → identical frames and link draws; only the channel gain
	// differs. The fade is ~14 dB — well past the 2.5×/0.5× trust window.
	strong := newScenario(t, 67, 200, []float64{26}, []float64{0.003}, noise)
	faded := newScenario(t, 67, 200, []float64{12}, []float64{0.003}, noise)

	z := NewReceiver(strong.cfg, onlineClients(strong))
	rng := rand.New(rand.NewSource(68))
	rxStrong := strong.render(t, rng, noise, []int{50})
	if evs := z.Receive(rxStrong); len(evs) != 1 || evs[0].Frame == nil {
		t.Fatalf("pre-fade packet did not decode: %+v", evs)
	}

	// The channel fades. The receiver's learned Amp is now stale.
	rxFaded := faded.render(t, rng, noise, []int{50})
	decodedAt := -1
	for i := 1; i <= ampForgetAge+2; i++ {
		evs := z.Receive(rxFaded)
		if len(evs) == 1 && evs[0].Frame != nil {
			decodedAt = i
			break
		}
		if i <= ampFreshFor {
			continue // deaf while the stale estimate is still trusted
		}
	}
	if decodedAt < 0 {
		t.Fatalf("faded client never decoded within %d receptions — stale amplitude was not aged out", ampForgetAge+2)
	}
	if decodedAt <= 1 {
		t.Fatalf("faded packet decoded immediately (reception %d) — the regression scenario lost its teeth", decodedAt)
	}
	t.Logf("faded client recovered at reception %d post-fade", decodedAt)

	// learn must have replaced the stale estimate with the faded-channel
	// measurement: the very next reception decodes without waiting.
	if evs := z.Receive(rxFaded); len(evs) != 1 || evs[0].Frame == nil {
		t.Fatal("reception immediately after recovery did not decode — learn kept the stale estimate")
	}
}
