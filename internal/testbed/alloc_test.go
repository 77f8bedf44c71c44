package testbed

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"zigzag/internal/impair"
	"zigzag/internal/mac"
	"zigzag/internal/session"
)

// TestFrameIntoMatchesPayload pins the arena-backed frame builder to
// the allocating reference: identical payload bytes and header fields
// for any (station, seq), including after slot reuse.
func TestFrameIntoMatchesPayload(t *testing.T) {
	a := &renderArena{payloadRng: rand.New(rand.NewSource(0))}
	for _, c := range []struct {
		station uint8
		seq     int
	}{{1, 0}, {2, 7}, {1, 0}, {9, 300}} {
		f := a.frameInto(0, mac.Transmission{Station: c.station, Seq: c.seq}, 96)
		want := Payload(c.station, c.seq, 96)
		if !bytes.Equal(f.Payload, want) {
			t.Fatalf("station %d seq %d: arena payload differs from Payload()", c.station, c.seq)
		}
		if f.Src != c.station || f.Seq != uint16(c.seq) || f.Dst != 0xFF {
			t.Fatalf("station %d seq %d: header fields %+v", c.station, c.seq, f)
		}
	}
}

// TestRenderEpisodeAllocFree pins the ROADMAP leftover this PR closes:
// steady-state episode rendering — frames, payloads, waveforms, links,
// mixing, and optionally the full impairment chain — allocates
// nothing once the session arenas are grown.
func TestRenderEpisodeAllocFree(t *testing.T) {
	cfg := HiddenPairConfig(14, 14, FullyHidden, 2, 120, 0.05, 9)
	sess := session.New(cfg.CoreConfig())
	rng := rand.New(rand.NewSource(cfg.Seed))
	sess.ResetRand(rng)
	r := &run{cfg: cfg, sess: sess, phyCfg: sess.Cfg.PHY, rng: rng, air: sess.Air, arena: arenaOf(sess)}
	r.air.NoisePower = cfg.Noise
	r.air.RandomizePhase = true
	for i := 0; i < 2; i++ {
		link := sess.Link(i)
		link.Randomize(rng, cfg.SNRs[i], cfg.Noise, 0, 0.35, typicalLinkISI)
		r.links = append(r.links, link)
	}
	ep := mac.Episode{Transmissions: []mac.Transmission{
		{Station: 1, Seq: 0, Start: 0},
		{Station: 2, Seq: 1, Start: 120 * time.Microsecond},
	}}
	op := func() { r.renderEpisode(ep) }
	op() // warm up the arenas
	if n := testing.AllocsPerRun(50, op); n != 0 {
		t.Errorf("renderEpisode (static channel): %v allocs per run in steady state, want 0", n)
	}

	ch := r.arena.impair.Get(impair.Profile{Doppler: 3e-4, RicianK: 2, InterfDuty: 0.2, DriftRate: 1e-7})
	ch.Reset(3)
	r.air.Impair = ch
	op()
	if n := testing.AllocsPerRun(50, op); n != 0 {
		t.Errorf("renderEpisode (impaired channel): %v allocs per run in steady state, want 0", n)
	}
}

// TestRenderEpisodeAllocFreeK3 repeats the steady-state pin for a
// three-station episode: the k-way generalization must not reopen the
// rendering hot path when a third transmission joins the collision.
func TestRenderEpisodeAllocFreeK3(t *testing.T) {
	cfg := RunConfig{
		SNRs: []float64{14, 14, 13},
		Senses: [][]bool{
			{true, false, false},
			{false, true, false},
			{false, false, true},
		},
		Packets: 2,
		Payload: 120,
		Noise:   0.05,
		Seed:    17,
	}
	sess := session.New(cfg.CoreConfig())
	rng := rand.New(rand.NewSource(cfg.Seed))
	sess.ResetRand(rng)
	r := &run{cfg: cfg, sess: sess, phyCfg: sess.Cfg.PHY, rng: rng, air: sess.Air, arena: arenaOf(sess)}
	r.air.NoisePower = cfg.Noise
	r.air.RandomizePhase = true
	for i := 0; i < 3; i++ {
		link := sess.Link(i)
		link.Randomize(rng, cfg.SNRs[i], cfg.Noise, 0, 0.35, typicalLinkISI)
		r.links = append(r.links, link)
	}
	ep := mac.Episode{Transmissions: []mac.Transmission{
		{Station: 1, Seq: 0, Start: 0},
		{Station: 2, Seq: 1, Start: 90 * time.Microsecond},
		{Station: 3, Seq: 2, Start: 210 * time.Microsecond},
	}}
	op := func() { r.renderEpisode(ep) }
	op() // warm up the arenas
	if n := testing.AllocsPerRun(50, op); n != 0 {
		t.Errorf("renderEpisode (three stations): %v allocs per run in steady state, want 0", n)
	}
}
