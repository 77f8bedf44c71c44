package testbed

import (
	"context"
	"math"
	"math/rand"
	"time"

	"zigzag/internal/bitutil"
	"zigzag/internal/channel"
	"zigzag/internal/core"
	"zigzag/internal/frame"
	"zigzag/internal/impair"
	"zigzag/internal/mac"
	"zigzag/internal/metrics"
	"zigzag/internal/modem"
	"zigzag/internal/phy"
	"zigzag/internal/runner"
	"zigzag/internal/session"
)

// Scheme selects one of the compared receiver designs (§5.1e).
type Scheme int

const (
	// ZigZag is the paper's receiver.
	ZigZag Scheme = iota
	// Current80211 uses the same underlying decoder on individual
	// packets and treats every unresolved collision as a loss.
	Current80211
	// CollisionFree is the idealized scheduler that gives every sender
	// its own time slot (no interference ever).
	CollisionFree
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case ZigZag:
		return "ZigZag"
	case Current80211:
		return "802.11"
	case CollisionFree:
		return "Collision-Free Scheduler"
	default:
		return "?"
	}
}

// SampleRate maps simulation time to complex samples. With BPSK at
// 500 kb/s and 2 samples per symbol (§5.1c) one sample spans exactly one
// microsecond, which keeps MAC timing and PHY buffers aligned.
const SampleRate = 1e6

// samplesPerMicro is SampleRate in samples/µs.
const samplesPerMicro = SampleRate / 1e6

// RunConfig describes one flow experiment: n senders transmitting to a
// single AP.
type RunConfig struct {
	// SNRs holds each sender's SNR at the AP in dB.
	SNRs []float64
	// Senses[i][j]: can sender i hear sender j?
	Senses [][]bool
	// Packets per sender.
	Packets int
	// Payload bytes per packet.
	Payload int
	// Noise is the receiver noise power; SNRs are relative to it.
	Noise float64
	// Seed drives every random choice of the run.
	Seed int64
	// MaxTime bounds the MAC simulation (default: generous).
	MaxTime time.Duration
	// DisableBackward ablates the backward pass (Fig 5-3).
	DisableBackward bool
	// Saturated keeps every sender's queue non-empty for the whole run
	// (the paper's "transmit at full speed" model, §5.2): the run is
	// time-bounded instead of packet-bounded, sized so each sender could
	// deliver about Packets packets on a clean channel. Without it, a
	// capture-starved sender simply delivers its backlog after the
	// strong sender drains — which saturated senders never allow.
	Saturated bool
	// Workers sizes the worker pool for the parts of a run that are
	// embarrassingly parallel (currently the collision-free scheduler,
	// whose slots are independent single-packet decodes); 0 means
	// GOMAXPROCS. The DCF schemes are inherently sequential — each
	// episode's backoffs depend on the previous episode's ACKs — so
	// Workers does not affect them. Results are identical at any value.
	Workers int
	// Impair describes the time-varying channel impairments every
	// reception of the run suffers (internal/impair): fading, drifting
	// oscillators, interference, converter limits. The zero value is
	// the static paper channel, bit-identical to builds without the
	// impairment engine; trajectories are derived from Seed, so runs
	// stay deterministic.
	Impair impair.Profile
}

// CoreConfig returns the decoder configuration a run with this
// RunConfig uses — the config pooled sessions for RunWith are keyed by.
func (cfg RunConfig) CoreConfig() core.Config {
	c := core.DefaultConfig()
	c.DisableBackward = cfg.DisableBackward
	c.Workers = cfg.Workers
	return c
}

// FlowResult is the outcome of one sender's flow.
type FlowResult struct {
	Sender     uint8
	Stats      metrics.FlowStats
	BitErrors  int
	BitsTotal  int
	Throughput float64 // delivered airtime / elapsed time
}

// BER returns the flow's measured bit error rate over delivered and
// failed packets.
func (f FlowResult) BER() float64 {
	if f.BitsTotal == 0 {
		return 0
	}
	return float64(f.BitErrors) / float64(f.BitsTotal)
}

// RunResult is the outcome of a whole run.
type RunResult struct {
	Flows    []FlowResult
	Elapsed  time.Duration
	Episodes int
	// Collisions counts episodes with more than one transmission.
	Collisions int
}

// AggregateThroughput is the sum of flow throughputs (Fig 5-5's
// normalized aggregate).
func (r RunResult) AggregateThroughput() float64 {
	t := 0.0
	for _, f := range r.Flows {
		t += f.Throughput
	}
	return t
}

// run holds the per-run state shared by the arbiters.
type run struct {
	cfg     RunConfig
	scheme  Scheme
	sess    *session.Session
	phyCfg  phy.Config
	coreCfg core.Config
	tx      *phy.Transmitter
	rx      *phy.Receiver
	zz      *core.Receiver
	links   []*channel.Params
	freqs   []float64
	air     *channel.Air
	rng     *rand.Rand

	airtimeSamples int
	delivered      map[[2]uint16]bool // (station, seq) → delivered
	bitErr, bitTot []int
	frameBuf       []*frame.Frame
	ems            []channel.Emission
	arena          *renderArena
}

// typicalLinkISI is the shared (read-only) three-tap testbed ISI
// profile every link uses, hoisted out of the per-run loop.
var typicalLinkISI = channel.TypicalISI(1)

// payloadSeed is the deterministic payload stream seed for a station's
// seq-th packet — the single definition Payload and the arena-backed
// render path share.
func payloadSeed(station uint8, seq int) int64 {
	return int64(station)<<32 ^ int64(seq)<<8 ^ 0x5bd1
}

// Payload returns the deterministic payload for a station's seq-th
// packet: both the transmitter and the BER accounting derive it. This
// is the allocating reference form; episode rendering goes through the
// per-session renderArena, which produces identical bytes without
// per-packet construction.
func Payload(station uint8, seq int, n int) []byte {
	r := rand.New(rand.NewSource(payloadSeed(station, seq)))
	p := make([]byte, n)
	r.Read(p)
	return p
}

// renderArena is the per-session episode-rendering scratch: the pooled
// payload generator (one reseedable rng instead of a fresh
// rand.New per packet), the frame and payload arenas (one slot per
// concurrently-live transmission), the BER-accounting truth buffer,
// and the cached impairment chain. It rides the session through the
// pool via Session.Aux, so steady-state episode rendering allocates
// nothing (AllocsPerRun-pinned).
type renderArena struct {
	payloadRng *rand.Rand
	frames     []frame.Frame
	payloads   [][]byte
	truth      []byte
	impair     impair.ChainCache
}

// arenaOf returns sess's render arena, building (or replacing a
// foreign Aux occupant) on mismatch.
func arenaOf(sess *session.Session) *renderArena {
	a, ok := sess.Aux.(*renderArena)
	if !ok {
		a = &renderArena{payloadRng: rand.New(rand.NewSource(0))}
		sess.Aux = a
	}
	return a
}

// frameInto builds the frame a transmission carries, in arena slot
// slot (valid until the slot is rendered again). Retransmissions are
// bit-identical to the original, matching the paper's replay
// methodology (§5.2: "the sender transmits each packet twice"): if the
// Retry bit were encoded, the header check byte and the trailing
// CRC-32 would differ between the two collisions, and a joint decode
// that assembles chunks from both copies could never pass the
// checksum. (Handling mixed-version collisions needs per-symbol
// provenance tracking — noted as future work alongside the paper's §6a
// coding integration.)
func (a *renderArena) frameInto(slot int, tr mac.Transmission, payload int) *frame.Frame {
	for slot >= len(a.frames) {
		a.frames = append(a.frames, frame.Frame{})
		a.payloads = append(a.payloads, nil)
	}
	if cap(a.payloads[slot]) < payload {
		a.payloads[slot] = make([]byte, payload)
	}
	p := a.payloads[slot][:payload]
	a.payloads[slot] = p
	// Reseeding resets the pooled rng (including its byte-read state)
	// to exactly the state a fresh rand.New(rand.NewSource(seed))
	// starts from, so the bytes match Payload's.
	a.payloadRng.Seed(payloadSeed(tr.Station, tr.Seq))
	a.payloadRng.Read(p)
	a.frames[slot] = frame.Frame{
		Src:     tr.Station,
		Dst:     0xFF,
		Seq:     uint16(tr.Seq),
		Scheme:  modem.BPSK,
		Payload: p,
	}
	return &a.frames[slot]
}

// Run executes one flow experiment under the given scheme on a
// one-shot session. Monte-Carlo sweeps thread a pooled per-worker
// session through RunWith instead.
func Run(cfg RunConfig, scheme Scheme) RunResult {
	return RunWith(nil, cfg, scheme)
}

// RunWith is Run on a reusable simulation session: the transmitter,
// receivers, Air render buffers, waveform arenas and the joint-decode
// scratch all come from sess and are reset for this run. sess must be
// keyed by cfg.CoreConfig(); a nil or mismatched session is replaced by
// a fresh one. Results are bit-identical to Run at any reuse history —
// the testbed determinism suites pin it.
func RunWith(sess *session.Session, cfg RunConfig, scheme Scheme) RunResult {
	if sess == nil || sess.Cfg != cfg.CoreConfig() {
		sess = session.New(cfg.CoreConfig())
	}
	n := len(cfg.SNRs)
	r := &run{
		cfg:       cfg,
		scheme:    scheme,
		sess:      sess,
		phyCfg:    sess.Cfg.PHY,
		coreCfg:   sess.Cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		delivered: map[[2]uint16]bool{},
		bitErr:    make([]int, n),
		bitTot:    make([]int, n),
	}
	// The run's randomness is its own cfg.Seed stream (as it always
	// was); ResetRand installs it on the session Air.
	sess.ResetRand(r.rng)
	r.tx = sess.TX
	r.rx = sess.RX
	r.air = sess.Air
	r.air.NoisePower = cfg.Noise
	r.air.RandomizePhase = true
	r.arena = arenaOf(sess)
	if !cfg.Impair.Empty() {
		// Harsh-channel mode: every episode's reception runs through
		// the time-varying chain, with trajectories derived from the
		// run seed (independent per episode, byte-identical per run).
		ch := r.arena.impair.Get(cfg.Impair)
		ch.Reset(runner.TrialSeed(cfg.Seed, 0x17a9))
		r.air.Impair = ch
	}

	var clients []core.Client
	for i := 0; i < n; i++ {
		// Per-client carrier offsets spread over the realistic range,
		// deterministic per run.
		f := (0.002 + 0.0015*float64(i)) * sign(i)
		r.freqs = append(r.freqs, f)
		link := sess.Link(i)
		link.Randomize(r.rng, cfg.SNRs[i], cfg.Noise, 0, 0.35, typicalLinkISI)
		link.FreqOffset = f
		r.links = append(r.links, link)
		clients = append(clients, core.Client{
			ID:     uint8(i + 1),
			Scheme: modem.BPSK,
			Freq:   f * 0.98, // coarse AP-side estimate with residual error
			Amp:    link.Amplitude(),
		})
	}
	r.zz = sess.OnlineReceiver(clients)

	fr := &frame.Frame{Scheme: modem.BPSK, Payload: make([]byte, cfg.Payload)}
	r.airtimeSamples = r.phyCfg.TotalSamples(modem.BPSK, fr.BitLen())
	airtime := time.Duration(float64(r.airtimeSamples)/samplesPerMicro) * time.Microsecond

	maxTime := cfg.MaxTime
	if maxTime == 0 {
		maxTime = time.Duration(cfg.Packets*n*32) * (airtime + 2*time.Millisecond)
		if cfg.Saturated {
			// Enough air for every sender to move ~Packets packets on a
			// clean shared channel.
			perPacket := airtime + time.Duration(mac.CWMin/2)*mac.SlotTime + 2*mac.DIFS
			maxTime = time.Duration(cfg.Packets*n) * perPacket * 6 / 5
		}
	}

	if scheme == CollisionFree {
		return r.runCollisionFree(airtime)
	}

	pending := cfg.Packets
	if cfg.Saturated {
		pending = 1 << 30
	}
	stations := make([]*mac.Station, n)
	for i := range stations {
		stations[i] = &mac.Station{ID: uint8(i + 1), Pending: pending}
	}
	sim := &mac.Sim{
		Senses:   cfg.Senses,
		Airtime:  airtime,
		Stations: stations,
		Rng:      r.rng,
		MaxTime:  maxTime,
	}
	episodes := sim.Run(mac.ArbiterFunc(r.deliver))

	res := RunResult{Elapsed: sim.Elapsed(), Episodes: len(episodes)}
	for _, ep := range episodes {
		if len(ep.Transmissions) > 1 {
			res.Collisions++
		}
	}
	for i := 0; i < n; i++ {
		sent := cfg.Packets
		if cfg.Saturated {
			sent = sim.Delivered[i] + sim.Dropped[i]
		}
		fl := FlowResult{
			Sender: uint8(i + 1),
			Stats: metrics.FlowStats{
				Sent:      sent,
				Delivered: sim.Delivered[i],
			},
			BitErrors: r.bitErr[i],
			BitsTotal: r.bitTot[i],
		}
		fl.Throughput = float64(sim.Delivered[i]) * airtime.Seconds() / sim.Elapsed().Seconds()
		fl.Stats.Throughput = fl.Throughput
		res.Flows = append(res.Flows, fl)
	}
	return res
}

func sign(i int) float64 {
	if i%2 == 1 {
		return -1
	}
	return 1
}

// renderEpisode mixes an episode's transmissions into the session's
// reception buffer (valid until the next episode renders; the online
// receiver copies what it stores).
func (r *run) renderEpisode(ep mac.Episode) ([]complex128, []*frame.Frame) {
	const lead = 40
	if cap(r.frameBuf) < len(ep.Transmissions) {
		r.frameBuf = make([]*frame.Frame, len(ep.Transmissions))
	}
	frames := r.frameBuf[:len(ep.Transmissions)]
	r.ems = r.ems[:0]
	maxEnd := 0
	for i, tr := range ep.Transmissions {
		f := r.arena.frameInto(i, tr, r.cfg.Payload)
		frames[i] = f
		wave, err := r.sess.Waveform(i, f)
		if err != nil {
			continue
		}
		off := lead + int(float64((tr.Start-ep.Start)/time.Microsecond)*samplesPerMicro)
		r.ems = append(r.ems, channel.Emission{
			Samples: wave,
			Link:    r.links[int(tr.Station)-1],
			Offset:  off,
		})
		if end := off + len(wave); end > maxEnd {
			maxEnd = end
		}
	}
	return r.sess.Mix(maxEnd+lead, r.ems...), frames
}

// accountBits records bit errors for a transmission given the decoded
// bits (nil means a total loss: every bit counts as wrong, matching the
// paper's inclusion of lost packets in BER-vs-ground-truth accounting).
func (r *run) accountBits(f *frame.Frame, got []byte) {
	truth, err := f.Bits(r.arena.truth[:0])
	if err != nil {
		return
	}
	r.arena.truth = truth[:0]
	idx := int(f.Src) - 1
	r.bitTot[idx] += len(truth)
	if got == nil {
		r.bitErr[idx] += len(truth) / 2 // random-guess equivalent
		return
	}
	errs := int(bitutil.BitErrorRate(truth, got) * float64(len(truth)))
	r.bitErr[idx] += errs
}

// DebugEpisodeHook, when non-nil, observes every arbitrated episode
// (tests and diagnostics only).
var DebugEpisodeHook func(ep mac.Episode, frames []*frame.Frame, acks []bool)

// deliver is the MAC arbiter: it renders the episode through the channel
// and runs the scheme's receiver.
func (r *run) deliver(ep mac.Episode) []bool {
	rx, frames := r.renderEpisode(ep)
	acks := make([]bool, len(ep.Transmissions))
	switch r.scheme {
	case Current80211:
		r.deliver80211(rx, frames, acks)
	case ZigZag:
		r.deliverZigZag(rx, frames, acks)
	}
	if DebugEpisodeHook != nil {
		DebugEpisodeHook(ep, frames, acks)
	}
	return acks
}

// deliver80211 decodes the strongest sync and accepts whatever passes
// the checksum — the capture effect emerges naturally.
func (r *run) deliver80211(rx []complex128, frames []*frame.Frame, acks []bool) {
	var best *phy.Sync
	for i := range frames {
		freq := r.freqs[int(frames[i].Src)-1] * 0.98
		syncs := r.sess.Sync.DetectFor(rx, freq, 0, r.links[int(frames[i].Src)-1].Amplitude())
		for _, s := range syncs {
			s := s
			if best == nil || s.Mag > best.Mag {
				best = &s
			}
		}
	}
	decodedBits := map[int][]byte{}
	if best != nil {
		res := r.rx.DecodeAt(rx, *best, modem.BPSK)
		if res.OK() {
			for i, f := range frames {
				if res.Frame.Src == f.Src && res.Frame.Seq == f.Seq {
					acks[i] = true
					decodedBits[i] = res.Bits
				}
			}
		}
	}
	for i, f := range frames {
		r.accountBits(f, decodedBits[i])
	}
}

// deliverZigZag feeds the reception to the online ZigZag receiver.
func (r *run) deliverZigZag(rx []complex128, frames []*frame.Frame, acks []bool) {
	evs := r.zz.Receive(rx)
	decodedBits := map[int][]byte{}
	for _, ev := range evs {
		if ev.Frame == nil {
			continue
		}
		key := [2]uint16{uint16(ev.Frame.Src), ev.Frame.Seq}
		r.delivered[key] = true
		for i, f := range frames {
			if f.Src == ev.Frame.Src && f.Seq == ev.Frame.Seq {
				acks[i] = true
				if ev.Result != nil && ev.Result.Bits != nil {
					decodedBits[i] = ev.Result.Bits
				} else if bits, err := ev.Frame.Bits(nil); err == nil {
					decodedBits[i] = bits
				}
			}
		}
	}
	// Packets decoded in earlier episodes (e.g. via a matched stored
	// collision that included this packet) also count.
	for i, f := range frames {
		if !acks[i] && r.delivered[[2]uint16{uint16(f.Src), f.Seq}] {
			acks[i] = true
			if bits, err := f.Bits(nil); err == nil {
				decodedBits[i] = bits
			}
		}
	}
	for i, f := range frames {
		r.accountBits(f, decodedBits[i])
	}
}

// runCollisionFree schedules every packet in its own slot: the same
// decoder, zero interference, full MAC overhead per packet. Slots are
// independent single-packet decodes, so they fan out across the worker
// pool with one pooled session per worker; each slot draws noise and
// phase from its own seed-derived stream and the tallies reduce in slot
// order.
func (r *run) runCollisionFree(airtime time.Duration) RunResult {
	n := len(r.cfg.SNRs)
	res := RunResult{}
	perPacket := mac.DIFS + time.Duration(mac.CWMin/2)*mac.SlotTime + airtime + mac.SIFS + mac.ACKDuration
	elapsed := time.Duration(0)
	delivered := make([]int, n)
	const lead = 40
	type slotOutcome struct {
		aired, delivered bool
		errBits, totBits int
	}
	slots, mapErr := runner.MapLocal(context.Background(), r.cfg.Packets*n,
		runner.Options{Workers: r.cfg.Workers, BaseSeed: r.cfg.Seed ^ 0x3c6e},
		func() *session.Session { return session.Acquire(r.coreCfg) },
		session.Release,
		func(_ context.Context, sess *session.Session, slot int, rng *rand.Rand) (slotOutcome, error) {
			var oc slotOutcome
			sess.ResetRand(rng)
			ar := arenaOf(sess)
			if !r.cfg.Impair.Empty() {
				// One trajectory stream per slot, drawn from the slot's
				// trial rng so worker scheduling cannot reorder it.
				ch := ar.impair.Get(r.cfg.Impair)
				ch.Reset(rng.Int63())
				sess.Air.Impair = ch
			}
			seq, i := slot/n, slot%n
			tr := mac.Transmission{Station: uint8(i + 1), Seq: seq}
			f := ar.frameInto(0, tr, r.cfg.Payload)
			wave, err := sess.Waveform(0, f)
			if err != nil {
				return oc, nil // never airs: no airtime, no accounting
			}
			oc.aired = true
			truth, terr := sess.TruthBits(0, f)
			if terr != nil {
				return oc, nil
			}
			oc.totBits = len(truth)
			oc.errBits = len(truth) / 2 // random-guess equivalent until decoded
			air := sess.Air
			air.NoisePower = r.cfg.Noise
			air.RandomizePhase = true
			rx := sess.Mix(len(wave)+2*lead, channel.Emission{Samples: wave, Link: r.links[i], Offset: lead})
			res2, err := sess.RX.Receive(rx, modem.BPSK, r.freqs[i]*0.98, 0, r.links[i].Amplitude())
			if err != nil {
				return oc, nil
			}
			if res2.OK() && res2.Frame.Src == f.Src && res2.Frame.Seq == f.Seq {
				oc.delivered = true
			}
			oc.errBits = int(bitutil.BitErrorRate(truth, res2.Bits) * float64(len(truth)))
			return oc, nil
		})
	if mapErr != nil {
		panic(mapErr) // slots never return errors; only a bug panics
	}
	for slot, oc := range slots {
		if !oc.aired {
			continue
		}
		i := slot % n
		elapsed += perPacket
		if oc.delivered {
			delivered[i]++
		}
		r.bitErr[i] += oc.errBits
		r.bitTot[i] += oc.totBits
		res.Episodes++
	}
	if elapsed == 0 {
		elapsed = time.Microsecond
	}
	res.Elapsed = elapsed
	for i := 0; i < n; i++ {
		fl := FlowResult{
			Sender:    uint8(i + 1),
			Stats:     metrics.FlowStats{Sent: r.cfg.Packets, Delivered: delivered[i]},
			BitErrors: r.bitErr[i],
			BitsTotal: r.bitTot[i],
		}
		fl.Throughput = float64(delivered[i]) * airtime.Seconds() / elapsed.Seconds()
		fl.Stats.Throughput = fl.Throughput
		res.Flows = append(res.Flows, fl)
	}
	return res
}

// HiddenPairConfig builds a RunConfig for a two-sender scenario with the
// given SNRs and mutual-sensing relation.
func HiddenPairConfig(snrA, snrB float64, kind PairKind, packets, payload int, noise float64, seed int64) RunConfig {
	senses := [][]bool{{true, true}, {true, true}}
	switch kind {
	case FullyHidden:
		senses[0][1], senses[1][0] = false, false
	case PartialHidden:
		senses[0][1] = false
	}
	return RunConfig{
		SNRs:    []float64{snrA, snrB},
		Senses:  senses,
		Packets: packets,
		Payload: payload,
		Noise:   noise,
		Seed:    seed,
	}
}

// ClampSNR keeps topology-derived SNRs within the range the PHY
// operates over, mirroring receiver front-end saturation and the decode
// floor.
func ClampSNR(db float64) float64 {
	return math.Min(26, math.Max(6, db))
}
