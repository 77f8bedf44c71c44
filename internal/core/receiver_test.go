package core

import (
	"math/rand"
	"testing"

	"zigzag/internal/frame"
	"zigzag/internal/modem"
)

func onlineClients(s *scenario) []Client {
	var cs []Client
	for i := range s.frames {
		cs = append(cs, Client{
			ID:     s.frames[i].Src,
			Scheme: modem.BPSK,
			Freq:   s.metas[i].Freq,
			Amp:    s.links[i].Amplitude(),
		})
	}
	return cs
}

// render builds the raw reception samples without running detection (the
// online receiver does its own).
func (s *scenario) render(t testing.TB, rng *rand.Rand, noise float64, offsets []int) []complex128 {
	t.Helper()
	rec := s.collide(t, rng, noise, offsets)
	return rec.Samples
}

func TestOnlineReceiverCleanPacket(t *testing.T) {
	const noise = 0.05
	s := newScenario(t, 21, 200, []float64{14}, []float64{0.003}, noise)
	z := NewReceiver(s.cfg, onlineClients(s))
	rng := rand.New(rand.NewSource(22))
	rx := s.render(t, rng, noise, []int{50})
	evs := z.Receive(rx)
	if len(evs) != 1 || evs[0].Frame == nil {
		t.Fatalf("events: %+v", evs)
	}
	if evs[0].Via != ViaStandard {
		t.Fatalf("via = %s, want standard", evs[0].Via)
	}
	if !frame.SamePacket(evs[0].Frame, s.frames[0]) {
		t.Fatal("wrong frame")
	}
}

func TestOnlineReceiverHiddenTerminalPair(t *testing.T) {
	// The paper's §5.1d workflow: first collision stored, retransmission
	// collision matched and jointly decoded.
	const noise = 0.05
	s := newScenario(t, 23, 300, []float64{13, 13}, []float64{0.004, -0.003}, noise)
	z := NewReceiver(s.cfg, onlineClients(s))
	rng := rand.New(rand.NewSource(24))

	rx1 := s.render(t, rng, noise, []int{40, 40 + 700})
	evs1 := z.Receive(rx1)
	for _, ev := range evs1 {
		if ev.Frame != nil {
			t.Fatalf("first equal-power collision should not decode, got %v", ev.Frame)
		}
	}
	if z.StoredCollisions() != 1 {
		t.Fatalf("stored = %d, want 1", z.StoredCollisions())
	}

	// Retransmissions: same packets (bit-identical, as in the paper's
	// §5.2 replay), new offsets.
	s2 := &scenario{cfg: s.cfg, links: s.links, metas: s.metas, truth: s.truth}
	s2.waves = s.waves
	rx2 := s2.render(t, rng, noise, []int{40, 40 + 260})
	evs2 := z.Receive(rx2)
	got := map[uint8]bool{}
	for _, ev := range evs2 {
		if ev.Frame == nil {
			t.Fatalf("undecoded event in matched pair: %+v", ev.Result.Err)
		}
		if ev.Via != ViaZigzag {
			t.Fatalf("via = %s, want zigzag", ev.Via)
		}
		got[ev.Frame.Src] = true
	}
	if !got[s.frames[0].Src] || !got[s.frames[1].Src] {
		t.Fatalf("missing packets: %v", got)
	}
	if z.StoredCollisions() != 0 {
		t.Fatalf("store not drained: %d", z.StoredCollisions())
	}
}

func TestOnlineReceiverCapture(t *testing.T) {
	// A strong/weak collision decodes from a single reception ("capture"
	// path) without needing the store.
	const noise = 0.02
	s := newScenario(t, 25, 250, []float64{24, 13}, []float64{0.002, -0.003}, noise)
	z := NewReceiver(s.cfg, onlineClients(s))
	rng := rand.New(rand.NewSource(26))
	rx := s.render(t, rng, noise, []int{40, 40 + 300})
	evs := z.Receive(rx)
	decoded := 0
	for _, ev := range evs {
		if ev.Frame != nil {
			decoded++
			if ev.Via != ViaCapture {
				t.Fatalf("via = %s, want capture", ev.Via)
			}
		}
	}
	if decoded != 2 {
		t.Fatalf("decoded %d packets, want 2", decoded)
	}
}

func TestOnlineReceiverNoSignal(t *testing.T) {
	s := newScenario(t, 27, 100, []float64{14}, []float64{0.003}, 0.05)
	z := NewReceiver(s.cfg, onlineClients(s))
	noiseOnly := make([]complex128, 4000)
	rng := rand.New(rand.NewSource(28))
	for i := range noiseOnly {
		noiseOnly[i] = complex(0.2*rng.NormFloat64(), 0.2*rng.NormFloat64())
	}
	if evs := z.Receive(noiseOnly); evs != nil {
		t.Fatalf("noise produced events: %+v", evs)
	}
}

func TestStoreBounded(t *testing.T) {
	const noise = 0.05
	s := newScenario(t, 29, 150, []float64{13, 13}, []float64{0.004, -0.003}, noise)
	z := NewReceiver(s.cfg, onlineClients(s))
	z.MaxStored = 2
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 5; i++ {
		// Distinct payloads each time: never matches, always stored.
		sc := newScenario(t, int64(40+i), 150, []float64{13, 13}, []float64{0.004, -0.003}, noise)
		sc.links = s.links
		rx := sc.render(t, rng, noise, []int{40, 40 + 500})
		z.Receive(rx)
	}
	if z.StoredCollisions() > 2 {
		t.Fatalf("store grew to %d", z.StoredCollisions())
	}
}

func TestMatchCollisions(t *testing.T) {
	const noise = 0.05
	s := newScenario(t, 31, 300, []float64{13, 13}, []float64{0.004, -0.003}, noise)
	rng := rand.New(rand.NewSource(32))
	recA := s.collide(t, rng, noise, []int{40, 40 + 700})
	recB := s.collide(t, rng, noise, []int{40, 40 + 300})
	pairing, ok := MatchCollisions(s.cfg, recA, recB)
	if !ok {
		t.Fatalf("same packets did not match (score %.3f)", pairing.Score)
	}
	if pairing.Pairs[0] != 0 || pairing.Pairs[1] != 1 {
		t.Fatalf("pairing = %v", pairing.Pairs)
	}

	// Different packets: no match.
	other := newScenario(t, 33, 300, []float64{13, 13}, []float64{0.004, -0.003}, noise)
	other.links = s.links
	recC := other.collide(t, rng, noise, []int{40, 40 + 500})
	if p, ok := MatchCollisions(s.cfg, recA, recC); ok {
		t.Fatalf("different packets matched (score %.3f)", p.Score)
	}
}

func TestMatchCollisionsFlippedOrder(t *testing.T) {
	// Fig 4-1b: the same packets in swapped arrival order still match,
	// with the permutation reported.
	const noise = 0.05
	s := newScenario(t, 35, 300, []float64{13, 13}, []float64{0.004, -0.003}, noise)
	rng := rand.New(rand.NewSource(36))
	recA := s.collide(t, rng, noise, []int{40, 40 + 600})
	recB := s.collide(t, rng, noise, []int{40 + 450, 40})
	// collide() lists occurrences in packet order; swap recB's to mimic
	// a detector that reports them in arrival order.
	recB.Packets[0], recB.Packets[1] = recB.Packets[1], recB.Packets[0]
	pairing, ok := MatchCollisions(s.cfg, recA, recB)
	if !ok {
		t.Fatalf("flipped order did not match (score %.3f)", pairing.Score)
	}
	if pairing.Pairs[0] != 1 || pairing.Pairs[1] != 0 {
		t.Fatalf("pairing = %v, want [1 0]", pairing.Pairs)
	}
}

func TestMatchCollisionsDegenerate(t *testing.T) {
	if _, ok := MatchCollisions(DefaultConfig(), &Reception{}, &Reception{}); ok {
		t.Fatal("empty receptions should not match")
	}
	a := &Reception{Packets: make([]Occurrence, 1)}
	b := &Reception{Packets: make([]Occurrence, 2)}
	if _, ok := MatchCollisions(DefaultConfig(), a, b); ok {
		t.Fatal("mismatched counts should not match")
	}
}

// TestDetectAllocFree pins the ROADMAP leftover this PR closes: the
// collision detector's clustering and assignment run entirely on the
// receiver's detect scratch — a steady-state detect (multi-client,
// multi-packet reception) allocates nothing.
func TestDetectAllocFree(t *testing.T) {
	const noise = 0.05
	s := newScenario(t, 31, 200, []float64{14, 13}, []float64{0.003, -0.002}, noise)
	z := NewReceiver(s.cfg, onlineClients(s))
	rng := rand.New(rand.NewSource(32))
	rx := s.render(t, rng, noise, []int{50, 50 + 600})
	occs, clients := z.detect(rx)
	if len(occs) == 0 || len(clients) != len(occs) {
		t.Fatalf("detector found nothing to exercise: %d occs", len(occs))
	}
	op := func() { z.detect(rx) }
	op() // warm up the scratch
	if n := testing.AllocsPerRun(50, op); n != 0 {
		t.Errorf("detect: %v allocs per run in steady state, want 0", n)
	}
}

// TestDetectScratchReuseIdentical pins that scratch reuse is invisible:
// a dirtied detector reproduces a fresh detector's occurrences exactly.
func TestDetectScratchReuseIdentical(t *testing.T) {
	const noise = 0.05
	s := newScenario(t, 33, 180, []float64{14, 12}, []float64{0.004, -0.003}, noise)
	rng := rand.New(rand.NewSource(34))
	rx1 := s.render(t, rng, noise, []int{60, 60 + 500})
	rx2 := s.render(t, rng, noise, []int{40, 40 + 900})

	dirty := NewReceiver(s.cfg, onlineClients(s))
	dirty.detect(rx1) // dirty the scratch with a different reception
	gotOccs, gotClients := dirty.detect(rx2)

	fresh := NewReceiver(s.cfg, onlineClients(s))
	wantOccs, wantClients := fresh.detect(rx2)

	if len(gotOccs) != len(wantOccs) {
		t.Fatalf("occ count %d vs fresh %d", len(gotOccs), len(wantOccs))
	}
	for i := range wantOccs {
		if gotOccs[i] != wantOccs[i] || gotClients[i] != wantClients[i] {
			t.Fatalf("occ %d: %+v/%d vs fresh %+v/%d",
				i, gotOccs[i], gotClients[i], wantOccs[i], wantClients[i])
		}
	}
}
