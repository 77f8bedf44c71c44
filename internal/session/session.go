// Package session provides the pooled per-worker simulation engine the
// Monte-Carlo stack runs on. Every evaluation in this repository — BER
// sweeps, the Table 5.1 micro-evaluation, the whole-testbed figures —
// reduces to "run N independent trials", and before this package each
// trial rebuilt its world from scratch: Transmitters, Receivers,
// Synchronizers, Air mix buffers, joint-decoder state. All of that is
// setup cost paid in the steady-state loop.
//
// A Session hoists the world out of the loop. It owns every reusable
// piece of one simulated link universe — the transmitter, the standard
// and online receivers, the synchronizer, the Air (with its render
// buffers), the joint-decode Scratch (pooled Modelers/SymbolDecoders/
// residuals), and arenas for waveforms, payloads, links and receptions
// — keyed by the core.Config it was built for. Workers obtain sessions
// from a config-keyed Pool and reset them per trial:
//
//	runner.MustMapLocal(trials, opts,
//	    func() *session.Session { return session.Acquire(cfg) },
//	    session.Release,
//	    func(s *session.Session, trial int, rng *rand.Rand) T {
//	        s.ResetRand(rng) // or s.Reset(runner.TrialSeed(base, trial))
//	        ... run the trial on s ...
//	    })
//
// Determinism contract: Reset(seed) restores a state in which every
// observable output depends only on (config, seed) — never on which
// trials the session ran before or which worker holds it. Randomness
// goes through the session Rng (the runner's per-trial splitmix stream);
// scratch buffers are fully overwritten before they are read. The
// worker-count byte-identity suites across the experiment packages pin
// this end to end, and the session tests pin pooled-vs-fresh
// bit-identity directly.
package session

import (
	"math/rand"
	"sync"

	"zigzag/internal/channel"
	"zigzag/internal/core"
	"zigzag/internal/frame"
	"zigzag/internal/modem"
	"zigzag/internal/phy"
	"zigzag/internal/runner"
)

// Session is one worker's reusable simulation world. Exported fields
// are the components trials drive directly. A Session must not be
// shared by concurrent goroutines.
type Session struct {
	// Cfg is the configuration the session is keyed by.
	Cfg core.Config

	// TX turns frames into waveforms (use Waveform for the arena-backed
	// path).
	TX *phy.Transmitter
	// RX is the standard 802.11 receiver.
	RX *phy.Receiver
	// Sync is the preamble detector/synchronizer.
	Sync *phy.Synchronizer
	// Air is the collision generator; Reset points its Rng at the trial
	// stream.
	Air *channel.Air
	// Rng is the trial's random stream, installed by Reset/ResetRand.
	Rng *rand.Rand
	// Dec is the joint-decode session threaded through Decode.
	Dec *core.Scratch

	zz      *core.Receiver // online ZigZag receiver, lazily built
	preSyms []complex128

	// Aux hosts harness-specific worker state (e.g. the experiments'
	// collision-pair scenario arenas) so it rides the session through
	// the pool. Harnesses type-assert and rebuild on mismatch.
	Aux any

	// Arenas.
	mix    []complex128
	bitBuf []byte
	symBuf []complex128
	waves  [][]complex128
	truths [][]byte
	links  []*channel.Params
}

// New builds a session for cfg. Most callers go through Acquire.
func New(cfg core.Config) *Session {
	return &Session{
		Cfg:     cfg,
		TX:      phy.NewTransmitter(cfg.PHY),
		RX:      phy.NewReceiver(cfg.PHY),
		Sync:    phy.NewSynchronizer(cfg.PHY),
		Air:     &channel.Air{},
		Dec:     &core.Scratch{},
		preSyms: cfg.PHY.PreambleSymbols(),
	}
}

// Reset prepares the session for one trial whose randomness is defined
// by seed: the session Rng becomes the deterministic splitmix stream
// for that seed (runner.SeededRand), so Reset(runner.TrialSeed(base, i))
// reproduces exactly the stream runner.Map hands trial i.
func (s *Session) Reset(seed int64) {
	s.ResetRand(runner.SeededRand(seed))
}

// ResetRand is Reset adopting an already-constructed trial stream (the
// rng the runner passes trial closures), avoiding a duplicate rng
// allocation in the hot loop.
func (s *Session) ResetRand(rng *rand.Rand) {
	s.Rng = rng
	s.Air.Rng = rng
	s.Air.NoisePower = 0
	s.Air.RandomizePhase = false
	// A trial starts on the static channel; harnesses that want
	// time-varying impairments install a freshly seeded chain after the
	// reset. Clearing here is what keeps a pooled session from leaking
	// one sweep's impairment chain into an unrelated trial.
	s.Air.Impair = nil
}

// Mix renders a reception of n samples into the session's reusable
// buffer (channel.Air.MixInto). The returned slice is valid until the
// next Mix on this session; components that retain receptions (the
// online receiver's collision store) copy out of it.
func (s *Session) Mix(n int, ems ...channel.Emission) []complex128 {
	s.mix = s.Air.MixInto(s.mix, n, ems...)
	return s.mix
}

// Decode runs the joint ZigZag decoder on the session's decode scratch.
// The Result's Residuals are valid until the next Decode on this
// session.
func (s *Session) Decode(metas []core.PacketMeta, recs []*core.Reception) (*core.Result, error) {
	return core.DecodeWith(s.Dec, s.Cfg, metas, recs)
}

// Waveform renders f's transmitted chip stream into the arena slot
// (one slot per concurrently-live waveform, e.g. one per colliding
// sender). The returned slice is valid until the slot is rendered
// again.
func (s *Session) Waveform(slot int, f *frame.Frame) ([]complex128, error) {
	bits, err := f.Bits(s.bitBuf[:0])
	if err != nil {
		return nil, err
	}
	s.bitBuf = bits
	s.symBuf = append(s.symBuf[:0], s.preSyms...)
	s.symBuf = modem.Modulate(s.symBuf, f.Scheme, bits)
	for slot >= len(s.waves) {
		s.waves = append(s.waves, nil)
	}
	w := s.waves[slot]
	if w != nil {
		w = w[:0]
	}
	s.waves[slot] = modem.Upsample(w, s.symBuf, s.Cfg.PHY.SamplesPerSymbol)
	return s.waves[slot], nil
}

// TruthBits returns f's true frame bits in the arena slot (the ground
// truth BER accounting compares against). Valid until the slot is
// rendered again.
func (s *Session) TruthBits(slot int, f *frame.Frame) ([]byte, error) {
	for slot >= len(s.truths) {
		s.truths = append(s.truths, nil)
	}
	b := s.truths[slot]
	if b != nil {
		b = b[:0]
	}
	bits, err := f.Bits(b)
	if err != nil {
		return nil, err
	}
	s.truths[slot] = bits
	return bits, nil
}

// Link returns the arena-backed channel parameters for a sender slot,
// zeroed for the caller to fill (e.g. via channel.Params.Randomize).
// The pointer stays stable across trials and arena growth.
func (s *Session) Link(slot int) *channel.Params {
	for slot >= len(s.links) {
		s.links = append(s.links, &channel.Params{})
	}
	p := s.links[slot]
	*p = channel.Params{}
	return p
}

// OnlineReceiver returns the session's online ZigZag receiver,
// reinitialized for the given clients (core.Receiver.Reinit — client
// table rebuilt, collision store emptied, scratch retained).
func (s *Session) OnlineReceiver(clients []core.Client) *core.Receiver {
	if s.zz == nil {
		s.zz = core.NewReceiver(s.Cfg, clients)
		return s.zz
	}
	s.zz.Reinit(s.Cfg, clients)
	return s.zz
}

// StreamReceiver returns the session's online ZigZag receiver armed
// for streaming ingest: reinitialized for the given clients and with
// the Ingest/Poll front end set to sc (core.Receiver.SetStream). The
// serve engine obtains its long-lived receiver through this, so a
// pooled session recycles the framer window and pending-queue buffers
// along with the rest of the decode scratch.
func (s *Session) StreamReceiver(clients []core.Client, sc core.StreamConfig) *core.Receiver {
	z := s.OnlineReceiver(clients)
	z.SetStream(sc)
	return z
}

// Pool caches idle sessions keyed by their config. The zero value is
// ready to use.
type Pool struct {
	mu   sync.Mutex
	free map[core.Config][]*Session
}

// Acquire returns a session for cfg: a pooled one when available, a
// fresh one otherwise.
func (p *Pool) Acquire(cfg core.Config) *Session {
	p.mu.Lock()
	if list := p.free[cfg]; len(list) > 0 {
		s := list[len(list)-1]
		list[len(list)-1] = nil
		p.free[cfg] = list[:len(list)-1]
		p.mu.Unlock()
		return s
	}
	p.mu.Unlock()
	return New(cfg)
}

// Release returns a session to the pool for reuse by later sweeps of
// the same config.
func (p *Pool) Release(s *Session) {
	if s == nil {
		return
	}
	// Drop the trial stream and impairment chain: a pooled session must
	// not retain the last trial's rng or its harness's chain
	// (determinism comes from the next Reset).
	s.Rng = nil
	s.Air.Rng = nil
	s.Air.Impair = nil
	p.mu.Lock()
	if p.free == nil {
		p.free = make(map[core.Config][]*Session)
	}
	p.free[s.Cfg] = append(p.free[s.Cfg], s)
	p.mu.Unlock()
}

var defaultPool Pool

// Acquire obtains a session for cfg from the process-wide pool.
func Acquire(cfg core.Config) *Session { return defaultPool.Acquire(cfg) }

// Release returns a session to the process-wide pool.
func Release(s *Session) { defaultPool.Release(s) }

// MapTrials fans trials out across the runner's worker pool with one
// session per worker, reset onto each trial's deterministic stream
// before the trial body runs. It is the session-engine counterpart of
// runner.MustMap: same seeding discipline, same trial-order results,
// byte-identical output at any worker count.
//
// MapTrials materializes one result per trial — O(trials) memory. Its
// streaming counterpart is ReduceShard.
func MapTrials[T any](cfg core.Config, trials, workers int, baseSeed int64, fn func(s *Session, trial int) T) []T {
	return MapShard(cfg, runner.Batch{Lo: 0, Hi: trials}, workers, baseSeed, fn)
}

// MapShard is MapTrials over a contiguous range of the global trial
// space: trial indices (and therefore seeds and random streams) are the
// GLOBAL ones, so shard [lo,hi) of a sweep reproduces exactly the
// trials the unsharded run executes at those indices. It remains
// O(range) memory.
func MapShard[T any](cfg core.Config, sh runner.Batch, workers int, baseSeed int64, fn func(s *Session, trial int) T) []T {
	n := sh.Hi - sh.Lo
	if n < 0 {
		n = 0
	}
	return runner.MustMapLocal(n, runner.Options{Workers: workers, BaseSeed: baseSeed},
		func() *Session { return Acquire(cfg) },
		Release,
		func(s *Session, i int, rng *rand.Rand) T {
			trial := sh.Lo + i
			if sh.Lo != 0 {
				// MustMapLocal seeds rng by the local index; re-derive the
				// global trial's stream so sharding never moves a byte.
				rng = runner.NewRand(baseSeed, trial)
			}
			s.ResetRand(rng)
			return fn(s, trial)
		})
}

// ReduceShard streams a contiguous range of the global trial space
// (runner.ShardRange output) through pooled per-worker sessions into a
// mergeable accumulator: the session-engine counterpart of
// runner.Reduce, and the memory-bounded replacement for
// MapShard-plus-serial-fold. Merge must be exactly associative and
// commutative (see runner.ReduceSpec); resident memory is O(workers).
// Per-trial seeds derive from the global index, so any shard split ×
// any worker count merges byte-identically with the unsharded run.
func ReduceShard[A any](cfg core.Config, sh runner.Batch, workers int, baseSeed int64,
	newAcc func() A, fold func(s *Session, acc A, trial int) A, merge func(dst, src A) A) A {
	return runner.Reduce(runner.ReduceSpec[*Session, A]{
		Shard:   sh,
		Opts:    runner.Options{Workers: workers, BaseSeed: baseSeed},
		Acquire: func() *Session { return Acquire(cfg) },
		Release: Release,
		NewAcc:  newAcc,
		Fold: func(s *Session, acc A, trial int, rng *rand.Rand) A {
			s.ResetRand(rng)
			return fold(s, acc, trial)
		},
		Merge: merge,
	})
}
