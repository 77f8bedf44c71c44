package serve

import (
	"fmt"
	"io"

	"zigzag/internal/channel"
	"zigzag/internal/core"
	"zigzag/internal/frame"
	"zigzag/internal/impair"
	"zigzag/internal/modem"
	"zigzag/internal/runner"
	"zigzag/internal/session"
)

// Source is a continuous I/Q sample stream. Read fills p with up to
// len(p) samples and returns how many were written; it returns io.EOF
// when the stream ends (with n == 0, like a byte reader at EOF).
type Source interface {
	Read(p []complex128) (int, error)
}

// SynthConfig parameterizes the synthetic hidden-terminal traffic
// generator.
type SynthConfig struct {
	// Core is the receiver/PHY configuration (zero: DefaultConfig).
	Core core.Config
	// Seed derives every episode's randomness (runner.TrialSeed
	// discipline: episode e is a pure function of (Seed, e), so any
	// chunking or replay reproduces the stream byte-identically).
	Seed int64
	// K is the number of mutually-hidden senders (default 2).
	K int
	// Episodes is the stream length in collision episodes (default 16).
	Episodes int
	// Payload is the per-packet payload size in bytes (default 260).
	Payload int
	// SNRdB is every sender's SNR at the AP (default 13 — the paper's
	// equal-power hidden-terminal regime).
	SNRdB float64
	// NoisePower is the AP's receiver noise (default 0.05).
	NoisePower float64
	// Gap is the idle-air run inserted after every reception in
	// samples (default 256 — comfortably above the framer's closing
	// gap, exact zeros so a zero-threshold gate reframes receptions
	// exactly).
	Gap int
	// CleanEvery, when > 0, makes every CleanEvery-th episode a single
	// interference-free packet (exercises the standard path; default 4,
	// < 0 disables).
	CleanEvery int
	// Impair, when non-empty, installs the time-varying impairment
	// chain on every episode (seeded per episode, harsh-sweep
	// discipline).
	Impair impair.Profile
}

func (c *SynthConfig) fillDefaults() {
	if c.Core == (core.Config{}) {
		c.Core = core.DefaultConfig()
	}
	if c.K <= 0 {
		c.K = 2
	}
	if c.Episodes <= 0 {
		c.Episodes = 16
	}
	if c.Payload <= 0 {
		c.Payload = 260
	}
	if c.SNRdB == 0 {
		c.SNRdB = 13
	}
	if c.NoisePower == 0 {
		c.NoisePower = 0.05
	}
	if c.Gap <= 0 {
		c.Gap = 256
	}
	if c.CleanEvery == 0 {
		c.CleanEvery = 4
	}
}

// Synthetic generates hidden-terminal traffic as one continuous sample
// stream: each episode is K collisions of the same K packets at
// different offsets (the §5.1d retransmission workflow — the receiver
// must store the early collisions and resolve the set by the K-th),
// with exact-zero idle air between receptions. Episode randomness
// follows the runner's TrialSeed discipline, so the stream is a pure
// function of the config.
type Synthetic struct {
	cfg     SynthConfig
	sess    *session.Session
	links   []*channel.Params
	clients []core.Client
	chains  impair.ChainCache
	payload []byte
	waves   [][]complex128 // this episode's rendered waveforms
	ems     []channel.Emission
	zeros   []complex128

	episode int
	buf     []complex128
	pos     int

	// UniqueFrames counts distinct packets placed on the air so far
	// (each collision episode carries K, a clean episode 1); the
	// decode-rate accounting in the gate divides by it.
	UniqueFrames int64
}

// NewSynthetic builds the generator. The sender channels (links, CFOs,
// amplitudes — the AP's coarse client knowledge) are drawn once from
// Seed and stay fixed for the stream's lifetime, as association-time
// state does; per-episode payloads, offsets and noise vary.
func NewSynthetic(cfg SynthConfig) (*Synthetic, error) {
	cfg.fillDefaults()
	if cfg.K > 4 {
		return nil, fmt.Errorf("serve: %d senders; the k-way decoder supports at most 4", cfg.K)
	}
	g := &Synthetic{cfg: cfg}
	g.sess = session.Acquire(cfg.Core)
	rng := runner.SeededRand(cfg.Seed)
	for i := 0; i < cfg.K; i++ {
		link := channel.RandomParams(rng, cfg.SNRdB, cfg.NoisePower, 0, 0.4, channel.TypicalISI(1))
		// Distinct, comfortably separated CFOs per sender (the decoder
		// distinguishes clients by frequency).
		link.FreqOffset = 0.004 - 0.0025*float64(i)
		g.links = append(g.links, link)
		g.clients = append(g.clients, core.Client{
			ID:     uint8(i + 1),
			Scheme: modem.BPSK,
			// The AP's coarse estimates carry the tests' 2% residual
			// frequency error; amplitude is known from association.
			Freq: link.FreqOffset * 0.98,
			Amp:  link.Amplitude(),
		})
	}
	g.payload = make([]byte, cfg.Payload)
	return g, nil
}

// Clients returns the AP-side client table matching the generator's
// senders — what the Engine's receiver must be configured with.
func (g *Synthetic) Clients() []core.Client {
	return append([]core.Client(nil), g.clients...)
}

// Close releases the generator's session.
func (g *Synthetic) Close() {
	session.Release(g.sess)
	g.sess = nil
}

// Read streams the next samples, rendering episodes on demand.
func (g *Synthetic) Read(p []complex128) (int, error) {
	n := 0
	for n < len(p) {
		if g.pos >= len(g.buf) {
			if g.episode >= g.cfg.Episodes {
				if n > 0 {
					return n, nil
				}
				return 0, io.EOF
			}
			g.renderEpisode()
		}
		c := copy(p[n:], g.buf[g.pos:])
		n += c
		g.pos += c
	}
	return n, nil
}

// renderEpisode renders episode g.episode into g.buf.
func (g *Synthetic) renderEpisode() {
	ep := g.episode
	g.episode++
	g.pos = 0
	g.buf = g.buf[:0]

	rng := runner.SeededRand(runner.TrialSeed(g.cfg.Seed, ep))
	// Chain seed first, harsh-sweep discipline, drawn whether or not
	// the chain is installed (keeps the rest of the episode's stream
	// independent of the impairment setting).
	chainSeed := rng.Int63()
	air := g.sess.Air
	air.Rng = rng
	air.NoisePower = g.cfg.NoisePower
	air.RandomizePhase = true
	if g.cfg.Impair.Empty() {
		air.Impair = nil
	} else {
		ch := g.chains.Get(g.cfg.Impair)
		ch.Reset(chainSeed)
		air.Impair = ch
	}

	clean := g.cfg.CleanEvery > 0 && ep%g.cfg.CleanEvery == g.cfg.CleanEvery-1
	k := g.cfg.K
	if clean {
		k = 1
	}
	// Fresh packets for the episode (Seq tags the episode so every
	// frame on the stream is distinguishable in digests).
	g.waves = g.waves[:0]
	for i := 0; i < k; i++ {
		rng.Read(g.payload)
		f := &frame.Frame{
			Src:     g.clients[i].ID,
			Dst:     99,
			Seq:     uint16(ep),
			Scheme:  modem.BPSK,
			Payload: g.payload,
		}
		w, err := g.sess.Waveform(i, f)
		if err != nil {
			// Config-level impossibility (payload too large); surface
			// loudly rather than stream garbage.
			panic(fmt.Sprintf("serve: rendering episode %d: %v", ep, err))
		}
		g.waves = append(g.waves, w)
		g.UniqueFrames++
	}

	// k receptions of the same k packets at per-reception offsets: the
	// first sender anchors at 40, and every other sender's offset is an
	// independent draw from [190, 890) per reception. Draws can
	// coincide, so two receptions may repeat a pairwise offset; that
	// pair then gives §4.2.2 no new equation.
	if len(g.zeros) < g.cfg.Gap {
		g.zeros = make([]complex128, g.cfg.Gap)
	}
	for r := 0; r < k; r++ {
		g.ems = g.ems[:0]
		maxEnd := 0
		for i := 0; i < k; i++ {
			off := 40
			if i > 0 {
				off = 40 + 150 + rng.Intn(700)
			}
			w := g.waves[i]
			g.ems = append(g.ems, channel.Emission{Samples: w, Link: g.links[i], Offset: off})
			if end := off + len(w); end > maxEnd {
				maxEnd = end
			}
		}
		rx := g.sess.Mix(maxEnd+80, g.ems...)
		g.buf = append(g.buf, rx...)
		g.buf = append(g.buf, g.zeros[:g.cfg.Gap]...)
	}
}
