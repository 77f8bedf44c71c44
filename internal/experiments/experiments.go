// Package experiments regenerates every table and figure of the paper's
// evaluation (Chapter 5) plus the analytical figures of Chapter 4. Each
// experiment is a pure function of a Scale (how much work to spend) and
// returns printable series/tables together with the headline scalars the
// paper quotes, so both the benchmark harness and the zigzag-bench CLI
// share one implementation.
package experiments

import (
	"math/rand"

	"zigzag/internal/channel"
	"zigzag/internal/core"
	"zigzag/internal/dsp"
	"zigzag/internal/frame"
	"zigzag/internal/impair"
	"zigzag/internal/modem"
	"zigzag/internal/session"
)

// Scale controls experiment cost.
type Scale struct {
	// Pairs is how many collision pairs per operating point.
	Pairs int
	// Packets is how many packets each sender offers in MAC-driven runs.
	Packets int
	// Payload is the frame payload size in bytes for PHY experiments.
	Payload int
	// TestbedPayload is the payload for whole-testbed runs. The paper's
	// 1500 B keeps the airtime above CWmax·slot, which is what makes
	// hidden-terminal collisions inescapable; smaller values trade
	// fidelity for speed.
	TestbedPayload int
	// TestbedPairs is how many sender pairs are sampled from the
	// topology.
	TestbedPairs int
	// Trials is the Monte-Carlo count for MAC-level simulations.
	Trials int
	// Workers bounds the worker pool that independent trials fan out
	// across (internal/runner); 0 means GOMAXPROCS. Per-trial seed
	// derivation makes every experiment's output identical at any
	// value — the determinism tests assert it.
	Workers int
	// Fig47Nodes overrides the node counts swept by Fig 4-7 (nil means
	// the paper's 2–9). Short-mode tests trim the expensive tail.
	Fig47Nodes []int
	// MinStatPairs, when positive, lowers the built-in pair-count
	// floors of the Table 5.1 micro-evaluation (10/12 for tracking, 24
	// for the ISI comparison). The floors keep the on/off comparisons
	// statistically stable at paper fidelity; short-mode tests trade
	// that stability for speed.
	MinStatPairs int
}

// statFloor applies MinStatPairs to one of the built-in pair floors.
func (sc Scale) statFloor(def int) int {
	if sc.MinStatPairs > 0 && sc.MinStatPairs < def {
		return sc.MinStatPairs
	}
	return def
}

// Quick is the scale used by `go test -bench` so the whole suite runs in
// minutes; Full approximates the paper's counts.
var Quick = Scale{
	Pairs:          8,
	Packets:        8,
	Payload:        200,
	TestbedPayload: 400,
	TestbedPairs:   10,
	Trials:         1200,
}

// Full approximates the paper's experiment sizes (500 packets, 1500 B);
// expect whole-testbed figures to take minutes.
var Full = Scale{
	Pairs:          60,
	Packets:        40,
	Payload:        700,
	TestbedPayload: 1500,
	TestbedPairs:   30,
	Trials:         60000,
}

// pairScenario builds one hidden-terminal collision pair at the given
// SNRs and returns the receptions plus ground truth, using honest
// preamble measurement for the occurrence syncs.
//
// Scenarios live on the worker's pooled Session (via Aux): the frames,
// payloads, emission lists and reception render buffers are arenas
// reused across trials, so a steady-state trial builds its world
// without reconstructing it. newPairScenario draws from the session Rng
// in exactly the order the pre-session per-trial constructor did, which
// keeps every experiment golden byte-identical.
type pairScenario struct {
	sess  *session.Session
	cfg   core.Config
	metas []core.PacketMeta
	waves [][]complex128 // alias the session waveform arena
	links []*channel.Params
	truth [][]byte // alias the session truth arena
	noise float64

	frames   []*frame.Frame
	payloads [][]byte
	ems      []channel.Emission
	rx       [][]complex128
	recs     []*core.Reception
	rxUsed   int
	recList  []*core.Reception
	offBuf   []int
	isi      dsp.FIR

	// impair caches the worker's harsh-channel chain keyed by profile.
	impair impair.ChainCache
}

// scenarioArena returns the worker's reusable pair-scenario arenas,
// hosted on the session so they ride it through the pool.
func scenarioArena(sess *session.Session) *pairScenario {
	s, ok := sess.Aux.(*pairScenario)
	if !ok {
		s = &pairScenario{isi: channel.TypicalISI(1)}
		sess.Aux = s
	}
	return s
}

func newPairScenario(sess *session.Session, payload int, snrs []float64, noise float64) *pairScenario {
	s := scenarioArena(sess)
	s.sess = sess
	s.cfg = sess.Cfg
	s.noise = noise
	s.metas = s.metas[:0]
	s.waves = s.waves[:0]
	s.links = s.links[:0]
	s.truth = s.truth[:0]
	s.rxUsed = 0
	rng := sess.Rng
	for i, snr := range snrs {
		for i >= len(s.payloads) {
			s.payloads = append(s.payloads, nil)
		}
		if cap(s.payloads[i]) < payload {
			s.payloads[i] = make([]byte, payload)
		}
		p := s.payloads[i][:payload]
		s.payloads[i] = p
		rng.Read(p)
		for i >= len(s.frames) {
			s.frames = append(s.frames, &frame.Frame{})
		}
		f := s.frames[i]
		*f = frame.Frame{Src: uint8(i + 1), Dst: 99, Seq: uint16(rng.Intn(1 << 12)), Scheme: modem.BPSK, Payload: p}
		freq := (0.0025 + 0.001*float64(i))
		if i%2 == 1 {
			freq = -freq
		}
		link := sess.Link(i)
		link.Randomize(rng, snr, noise, 0, 0.35, s.isi)
		link.FreqOffset = freq
		w, err := sess.Waveform(i, f)
		if err != nil {
			panic(err)
		}
		bits, err := sess.TruthBits(i, f)
		if err != nil {
			panic(err)
		}
		s.links = append(s.links, link)
		s.waves = append(s.waves, w)
		s.truth = append(s.truth, bits)
		s.metas = append(s.metas, core.PacketMeta{Scheme: modem.BPSK, Freq: freq * 0.98})
	}
	return s
}

// reception renders one collision with the packets at the given offsets
// (-1 = absent) and synchronizes honestly. Each reception of a trial
// gets its own arena slot, so a pair of receptions stays live together;
// slots recycle at the next newPairScenario.
func (s *pairScenario) reception(rng *rand.Rand, offsets []int) *core.Reception {
	s.ems = s.ems[:0]
	maxEnd := 0
	for i, off := range offsets {
		if off < 0 {
			continue
		}
		s.ems = append(s.ems, channel.Emission{Samples: s.waves[i], Link: s.links[i], Offset: off})
		if end := off + len(s.waves[i]); end > maxEnd {
			maxEnd = end
		}
	}
	air := s.sess.Air
	air.NoisePower = s.noise
	air.Rng = rng
	air.RandomizePhase = true
	k := s.rxUsed
	s.rxUsed++
	for k >= len(s.rx) {
		s.rx = append(s.rx, nil)
		s.recs = append(s.recs, &core.Reception{})
	}
	s.rx[k] = air.MixInto(s.rx[k], maxEnd+80, s.ems...)
	rx := s.rx[k]
	rec := s.recs[k]
	rec.Samples = rx
	rec.Packets = rec.Packets[:0]
	sy := s.sess.Sync
	for i, off := range offsets {
		if off < 0 {
			continue
		}
		sync, ok := sy.Measure(rx, off, 3, s.metas[i].Freq)
		if !ok {
			continue
		}
		rec.Packets = append(rec.Packets, core.Occurrence{Packet: i, Sync: sync})
	}
	return rec
}

// pair returns the reusable two-reception slice for a joint decode.
func (s *pairScenario) pair(r1, r2 *core.Reception) []*core.Reception {
	s.recList = append(s.recList[:0], r1, r2)
	return s.recList
}

// collisionPair renders the canonical two-collision scenario with random
// jitter offsets drawn from the contention window (in samples; one slot
// is 20 samples at the 1 µs/sample rate). It is the k=2 view of
// collisionSet, so the rng stream (and therefore every golden) is
// unchanged from the historical pairwise implementation.
func (s *pairScenario) collisionPair(rng *rand.Rand) (*core.Reception, *core.Reception) {
	recs := s.collisionSet(rng, 2)
	return recs[0], recs[1]
}

// collisionSet generalizes collisionPair to the scenario's k senders
// colliding nrecs times. Every reception carries all k packets: the
// first pinned at the 40-sample front porch, the rest at random
// contention-window jitters that never repeat across the whole set —
// a repeated jitter would reproduce an existing inter-packet offset,
// and repeated offsets contribute no new equations (§4.2.2). All
// jitters are drawn before any reception renders, matching the
// historical collisionPair draw order so k=2, nrecs=2 is
// rng-stream-identical to it. The returned slice is the scenario's
// reusable reception list (same arena discipline as pair).
func (s *pairScenario) collisionSet(rng *rand.Rand, nrecs int) []*core.Reception {
	const slotSamples = 20
	draw := func() int { return 40 + (1+rng.Intn(31))*slotSamples }
	k := len(s.metas)
	s.offBuf = s.offBuf[:0]
	for r := 0; r < nrecs; r++ {
		s.offBuf = append(s.offBuf, 40)
		for j := 1; j < k; j++ {
			d := draw()
			for seenOffset(s.offBuf, d) {
				d = draw()
			}
			s.offBuf = append(s.offBuf, d)
		}
	}
	s.recList = s.recList[:0]
	for r := 0; r < nrecs; r++ {
		s.recList = append(s.recList, s.reception(rng, s.offBuf[r*k:(r+1)*k]))
	}
	return s.recList
}

func seenOffset(offs []int, d int) bool {
	for _, o := range offs {
		if o == d {
			return true
		}
	}
	return false
}
