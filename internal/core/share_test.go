package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"zigzag/internal/frame"
	"zigzag/internal/obs"
	"zigzag/internal/phy"
)

// TestRedetectVisitsClientsInIDOrder pins redetect's client order. One
// round here adds two clients (1 and 3) next to the decoded client 2.
// Visiting the client map in its randomized order appended them as
// [1 3] or [3 1] from run to run; ascending ID makes it [1 3] always.
func TestRedetectVisitsClientsInIDOrder(t *testing.T) {
	const noise = 0.05
	s := newScenario(t, 81, 60, []float64{14, 14, 14}, []float64{0.003, -0.002, 0.001}, noise)
	z := NewReceiver(s.cfg, onlineClients(s))
	rng := rand.New(rand.NewSource(82))
	// The residual holds clients 1 and 3; client 2 decoded at 1500.
	residual := s.render(t, rng, noise, []int{40, -1, 40 + 600})
	occs := []Occurrence{{Sync: phy.Sync{RefPos: 1500, Start: 1500}}}
	clients := []uint8{2}
	res := &Result{Packets: []PacketResult{{Frame: &frame.Frame{Src: 2}}}}
	want := []uint8{2, 1, 3}
	for i := 0; i < 100; i++ {
		_, got, added := z.redetect(residual, occs, clients, res)
		if !added || !slices.Equal(got, want) {
			t.Fatalf("run %d: redetect extended the clients to %v (added %v), want %v", i, got, added, want)
		}
	}
}

// TestRedetectReloadsRewrittenResidual pins the explicit load behind
// the shared detection transform: the decoder rewrites its residual
// buffers in place, and a residual rewritten between two redetect
// rounds must be searched afresh, not served from the stale transform.
func TestRedetectReloadsRewrittenResidual(t *testing.T) {
	const noise = 0.05
	s := newScenario(t, 83, 60, []float64{14}, []float64{0.003}, noise)
	rng := rand.New(rand.NewSource(84))
	first := s.render(t, rng, noise, []int{40})
	second := s.render(t, rng, noise, []int{700})
	residual := make([]complex128, len(second))
	copy(residual, first)

	z := NewReceiver(s.cfg, onlineClients(s))
	occs, _, _ := z.redetect(residual, nil, nil, &Result{})
	if len(occs) != 1 || absInt(occs[0].Sync.RefPos-40) > 2 {
		t.Fatalf("first round found %+v, want the packet near 40", occs)
	}
	copy(residual, second) // the decoder's in-place rewrite
	got, _, _ := z.redetect(residual, nil, nil, &Result{})
	want, _, _ := NewReceiver(s.cfg, onlineClients(s)).redetect(residual, nil, nil, &Result{})
	if len(got) != 1 || len(want) != 1 || got[0] != want[0] {
		t.Fatalf("second round found %+v, a fresh receiver %+v", got, want)
	}
	if absInt(got[0].Sync.RefPos-700) > 2 {
		t.Fatalf("second round found the packet at %d, want near 700", got[0].Sync.RefPos)
	}
}

// TestRecycledStoredEntryDropsWindow pins the stored-window cache: an
// entry recycled through stFree must locate its new packet exactly as a
// fresh receiver does, not with the previous packet's window spectrum.
// Both collisions share offsets and lengths, so only the spectrum could
// go stale.
func TestRecycledStoredEntryDropsWindow(t *testing.T) {
	const noise = 0.05
	a := newScenario(t, 85, 60, []float64{13, 13}, []float64{0.003, -0.002}, noise)
	b := newScenario(t, 86, 60, []float64{13, 13}, []float64{0.003, -0.002}, noise)
	rng := rand.New(rand.NewSource(87))
	offsets, retry := []int{40, 540}, []int{40, 300}
	recA, rxA := a.collide(t, rng, noise, offsets), a.render(t, rng, noise, retry)
	recB, rxB := b.collide(t, rng, noise, offsets), b.render(t, rng, noise, retry)
	ids := []uint8{1, 2}

	z := NewReceiver(a.cfg, onlineClients(a))
	z.store(recA, ids)
	st := z.stored[0]
	z.loc.fresh.Load(rxA)
	if c := z.locateStored(st, 0, rxA, 3); len(c) == 0 || c[0].Score < matchThreshold {
		t.Fatalf("packet A not located in its retransmission: %+v", c)
	}
	z.dropStored(0)
	z.store(recB, ids)
	if z.stored[0] != st {
		t.Fatal("store did not recycle the freed entry")
	}
	z.loc.fresh.Load(rxB)
	got := slices.Clone(z.locateStored(st, 0, rxB, 3))

	fresh := NewReceiver(b.cfg, onlineClients(b))
	fresh.store(recB, ids)
	fresh.loc.fresh.Load(rxB)
	want := fresh.locateStored(fresh.stored[0], 0, rxB, 3)
	if len(want) == 0 || want[0].Score < matchThreshold {
		t.Fatalf("packet B not located in its retransmission: %+v", want)
	}
	if len(got) != len(want) {
		t.Fatalf("recycled entry found %+v, a fresh one %+v", got, want)
	}
	for i := range got {
		if got[i].Pos != want[i].Pos || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("candidate %d: recycled entry %+v, fresh %+v", i, got[i], want[i])
		}
	}
}

// storeMatchScenario fills a receiver's store with n two-packet
// collisions of different frames and renders a fresh collision that
// matches none of them — the common case on a live stream, where most
// store lookups fail to align.
func storeMatchScenario(t testing.TB, n int) (*Receiver, []complex128) {
	const noise = 0.05
	freqs := []float64{0.003, -0.002}
	rng := rand.New(rand.NewSource(90))
	s := newScenario(t, 91, 60, []float64{13, 13}, freqs, noise)
	z := NewReceiver(s.cfg, onlineClients(s))
	z.MaxStored = n
	for i := 0; i < n; i++ {
		si := newScenario(t, int64(92+i), 60, []float64{13, 13}, freqs, noise)
		z.store(si.collide(t, rng, noise, []int{40, 40 + 300 + 100*i}), []uint8{1, 2})
	}
	other := newScenario(t, 99, 60, []float64{13, 13}, freqs, noise)
	return z, other.render(t, rng, noise, []int{40, 500})
}

// TestFailedStoreMatchAllocFree pins the store-matching path on a
// warmed receiver: a reception that aligns with no stored collision —
// the shared transform, the cached windows, scoring, picking and
// preamble measurement — allocates nothing.
func TestFailedStoreMatchAllocFree(t *testing.T) {
	z, rx := storeMatchScenario(t, 2)
	fails := 0
	z.Obs = obs.SinkFunc(func(ev obs.Event) {
		if ev.Kind == obs.KindStoreAlignFail {
			fails++
		}
	})
	if _, ok := z.matchStored(rx, nil); ok || fails != 2 {
		t.Fatalf("store match: ok=%v with %d align failures, want no match and 2 failures", ok, fails)
	}
	z.Obs = nil
	if n := testing.AllocsPerRun(20, func() { z.matchStored(rx, nil) }); n != 0 {
		t.Errorf("failed store match allocates %v times per run, want 0", n)
	}
}

// BenchmarkStoreMatch measures the pairwise store lookup of one fresh
// reception against 4 stored two-packet collisions, none of which it
// matches: one shared transform of the reception, each stored window's
// spectrum cached on its entry.
func BenchmarkStoreMatch(b *testing.B) {
	z, rx := storeMatchScenario(b, 4)
	z.matchStored(rx, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.matchStored(rx, nil)
	}
}

// TestLocateShortFreshFindsNothing pins the lookup of a window longer
// than the reception it slides over: there is no position to score, so
// both the one-shot and the shared lookup return no candidate (they
// must not index a window energy that does not exist).
func TestLocateShortFreshFindsNothing(t *testing.T) {
	cfg, stored, start, fresh, _ := syntheticLocateScenario(64, 1<<12)
	for _, n := range []int{0, 1, MatchWindow / 2, MatchWindow - 2, MatchWindow - 1} {
		short := fresh[:n]
		if got := LocatePacket(cfg, stored, start, short, 3); len(got) != 0 {
			t.Errorf("one-shot lookup in %d samples found %+v, want none", n, got)
		}
		var s locateScratch
		s.fresh.Load(short)
		if got := s.locatePacket(cfg, stored, start, short, 3); len(got) != 0 {
			t.Errorf("shared lookup in %d samples found %+v, want none", n, got)
		}
	}
	if got := LocatePacket(cfg, stored, start, fresh[:MatchWindow], 1); len(got) != 1 {
		t.Errorf("lookup in exactly one window found %+v, want one candidate", got)
	}
}

// TestMatchStoredShortReception pins store matching for a reception
// shorter than the stored windows (a short burst or a forced-cut tail):
// every lookup fails to align and nothing matches.
func TestMatchStoredShortReception(t *testing.T) {
	z, rx := storeMatchScenario(t, 2)
	for _, n := range []int{1, 300, MatchWindow - 2} {
		fails := 0
		z.Obs = obs.SinkFunc(func(ev obs.Event) {
			if ev.Kind == obs.KindStoreAlignFail {
				fails++
			}
		})
		if _, ok := z.matchStored(rx[:n], nil); ok || fails != 2 {
			t.Errorf("%d-sample reception: ok=%v with %d align failures, want no match and 2 failures", n, ok, fails)
		}
	}
}
