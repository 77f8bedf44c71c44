// Package impair is the time-varying channel impairment engine. The
// static link model in internal/channel — one complex gain, one carrier
// offset, one ISI filter per packet — is exactly the paper's Chapter 3
// channel, and it only ever exercises the easy case: a channel that
// holds still for the whole collision. ZigZag's central robustness
// claim is the opposite situation — per-chunk re-estimation (the
// re-encoding phase tracker and ISI refits of §4.2.4) is supposed to
// survive channels that move *within* a packet. This package opens
// those testbed-style conditions as simulatable workloads:
//
//   - Fading: Jakes-style sum-of-sinusoids Rayleigh or Rician fading
//     with configurable normalized Doppler and coherence block;
//   - Multipath: a time-varying FIR whose taps fade independently;
//   - Drift: carrier-frequency drift plus a phase-noise random walk
//     (the sender's oscillator wandering over the packet);
//   - Interferer: a bursty narrowband tone with Markov on/off bursts;
//   - ADC: receiver front-end clipping and quantization.
//
// Models compose into a Chain that the channel's Air applies beneath
// the static per-link parameters: link models transform each emission's
// rendered samples before mixing, front-end models transform the mixed
// buffer after noise. A nil (or empty) chain is bit-identical to the
// static path — the channel package never calls into an inactive
// impairer.
//
// # Determinism
//
// Every trajectory is re-derived from seeds alone, never from retained
// state: Chain.Reset(seed) fixes the trial stream, and each
// (reception, emission, model) application derives its own splitmix
// stream via runner.TrialSeed — the exact derivation the Monte-Carlo
// runner uses for trials — so results are byte-identical at any worker
// count and independent of which pooled session ran which trial. Model
// structs hold only scratch buffers (fully overwritten before reads),
// so a model reused across trials is observationally identical to a
// fresh one.
package impair

import (
	"math"

	"zigzag/internal/runner"
)

// LinkModel impairs one emission's rendered samples in place — a
// time-varying transformation of the signal one sender's transmission
// suffered (fading trajectories, multipath, oscillator drift). seed is
// the fully derived per-(trial, reception, emission, model) stream
// seed; off is the sample offset of buf[0] within the reception
// window. Implementations must derive everything observable from seed
// (scratch reuse is invisible) and must not allocate in steady state.
type LinkModel interface {
	Name() string
	ApplyLink(seed int64, buf []complex128, off int)
}

// FrontModel impairs the receiver's mixed sample buffer in place —
// front-end effects the receiver itself suffers (narrowband
// interference, ADC clipping/quantization). Front models run after
// AWGN in chain order, so converters belong last. The same determinism
// and zero-allocation contract as LinkModel applies.
type FrontModel interface {
	Name() string
	ApplyFront(seed int64, buf []complex128)
}

// Chain is an ordered impairment composition: Link models apply to
// every emission, Front models to the mixed reception. The zero value
// is an inactive chain. A Chain is single-goroutine (it rides one
// channel.Air); pooled simulation sessions own one per worker.
//
// Chain implements the channel package's Impairer hook structurally,
// so the channel layer stays free of an impair dependency.
type Chain struct {
	Link  []LinkModel
	Front []FrontModel

	seed    int64 // trial stream root, installed by Reset
	rec     int   // receptions rendered since Reset
	recSeed int64 // derived stream of the current reception
}

// Reset pins the chain to a trial: every trajectory of the trial's
// receptions is derived from seed. It must be called before the first
// reception of a trial (sessions do it in their per-trial reset).
func (c *Chain) Reset(seed int64) {
	c.seed = seed
	c.rec = 0
	c.recSeed = runner.TrialSeed(seed, 0)
}

// Active reports whether the chain would transform anything: false for
// a nil or empty chain. The channel's Air consults it once per
// reception and skips every hook of an inactive chain, which is what
// keeps the nil path bit-identical to the static channel.
func (c *Chain) Active() bool {
	return c != nil && (len(c.Link) > 0 || len(c.Front) > 0)
}

// BeginReception advances the chain to the next reception window:
// reception r of a trial derives its stream as TrialSeed(seed, r), so
// trajectories are independent across receptions but reproducible for
// any (trial seed, reception index) pair.
func (c *Chain) BeginReception() {
	c.recSeed = runner.TrialSeed(c.seed, c.rec)
	c.rec++
}

// Seed-space salts separating the link and front derivation trees of
// one reception. Emission em, link model m draws from
// TrialSeed(TrialSeed(recSeed, em), m); front model m draws from
// TrialSeed(recSeed, saltFront+m). Emission counts stay far below
// saltFront, so the trees cannot collide.
const saltFront = 1 << 20

// ImpairEmission applies every link model, in order, to one emission's
// rendered samples (em is the emission's index within the reception;
// off its sample offset in the window).
func (c *Chain) ImpairEmission(em int, buf []complex128, off int) {
	emSeed := runner.TrialSeed(c.recSeed, em)
	for m, lm := range c.Link {
		lm.ApplyLink(runner.TrialSeed(emSeed, m), buf, off)
	}
}

// ImpairEmissions is the batched form of ImpairEmission: it impairs
// every rendered emission of the reception in one call (bufs[i] is
// emission i's samples, offs[i] its offset in the window). Each
// (emission, model) application derives its own stream seed, so the
// result is byte-identical to per-emission calls; iterating model-outer
// keeps one model's oscillator banks and planes hot in cache across the
// whole batch instead of cycling every model per emission.
func (c *Chain) ImpairEmissions(bufs [][]complex128, offs []int) {
	for m, lm := range c.Link {
		for em := range bufs {
			emSeed := runner.TrialSeed(c.recSeed, em)
			lm.ApplyLink(runner.TrialSeed(emSeed, m), bufs[em], offs[em])
		}
	}
}

// ImpairFront applies every front-end model, in order, to the mixed
// reception buffer.
func (c *Chain) ImpairFront(buf []complex128) {
	for m, fm := range c.Front {
		fm.ApplyFront(runner.TrialSeed(c.recSeed, saltFront+m), buf)
	}
}

// stream is the package's allocation-free random source: the runner's
// splitmix64 generator core (runner.Splitmix64 — one definition, so
// the two can never diverge), used as a value so models can derive
// streams without constructing a rand.Rand per application.
type stream struct {
	state uint64
	// Box–Muller spare: norm generates pairs and hands out the second
	// half on the next call.
	spare    float64
	hasSpare bool
}

func newStream(seed int64) stream { return stream{state: uint64(seed)} }

func (s *stream) next() uint64 { return runner.Splitmix64(&s.state) }

// float64 returns a uniform draw in [0, 1).
func (s *stream) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// angle returns a uniform draw in [0, 2π).
func (s *stream) angle() float64 {
	return s.float64() * 2 * math.Pi
}

// norm returns a standard normal draw (Box–Muller; pairs cached).
func (s *stream) norm() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	// u in (0, 1]: protect the log.
	u := 1 - s.float64()
	v := s.angle()
	r := math.Sqrt(-2 * math.Log(u))
	sin, cos := math.Sincos(v)
	s.spare = r * sin
	s.hasSpare = true
	return r * cos
}
