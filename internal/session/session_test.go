package session

import (
	"reflect"
	"testing"

	"zigzag/internal/channel"
	"zigzag/internal/core"
	"zigzag/internal/frame"
	"zigzag/internal/modem"
	"zigzag/internal/runner"
)

// trialOutcome is everything observable one reference trial produces.
type trialOutcome struct {
	OK      [2]bool
	Bits    [2][]byte
	Sources [2]string
	Iters   int
}

// runTrial is a representative Monte-Carlo trial body: build a
// two-sender hidden-terminal collision pair world on the session, mix
// two receptions, and jointly decode. Everything random flows from the
// session Rng.
func runTrial(s *Session) trialOutcome {
	rng := s.Rng
	payload := 120
	var metas []core.PacketMeta
	var waves [][]complex128
	var links []*channel.Params
	for i := 0; i < 2; i++ {
		p := make([]byte, payload)
		rng.Read(p)
		f := &frame.Frame{Src: uint8(i + 1), Dst: 9, Seq: uint16(rng.Intn(100)), Scheme: modem.BPSK, Payload: p}
		freq := 0.002 - 0.004*float64(i)
		link := s.Link(i)
		*link = *channel.RandomParams(rng, 15, 0.03, 0, 0.3, channel.TypicalISI(1))
		link.FreqOffset = freq
		w, err := s.Waveform(i, f)
		if err != nil {
			panic(err)
		}
		// Copy: the arena slot stays live while both waves are mixed, but
		// the reference reuses slots across trials.
		waves = append(waves, append([]complex128(nil), w...))
		links = append(links, link)
		metas = append(metas, core.PacketMeta{Scheme: modem.BPSK, Freq: freq * 0.98, BitLen: f.BitLen()})
	}
	s.Air.NoisePower = 0.03
	s.Air.RandomizePhase = true
	mkRec := func(off2 int) *core.Reception {
		n := off2 + len(waves[1]) + 60
		rx := s.Mix(n,
			channel.Emission{Samples: waves[0], Link: links[0], Offset: 40},
			channel.Emission{Samples: waves[1], Link: links[1], Offset: off2},
		)
		rec := &core.Reception{Samples: append([]complex128(nil), rx...)}
		for i, off := range []int{40, off2} {
			if sync, ok := s.Sync.Measure(rec.Samples, off, 3, metas[i].Freq); ok {
				rec.Packets = append(rec.Packets, core.Occurrence{Packet: i, Sync: sync})
			}
		}
		return rec
	}
	r1 := mkRec(40 + 20*(1+rng.Intn(25)))
	r2 := mkRec(40 + 20*(1+rng.Intn(25)))
	res, err := s.Decode(metas, []*core.Reception{r1, r2})
	var out trialOutcome
	if err != nil {
		return out
	}
	out.Iters = res.Iterations
	for i := range res.Packets {
		if i >= 2 {
			break
		}
		out.OK[i] = res.Packets[i].OK()
		out.Bits[i] = res.Packets[i].Bits
		out.Sources[i] = res.Packets[i].Source
	}
	return out
}

// TestSessionReuseBitIdentical pins the tentpole determinism contract:
// a session recycled across many trials through a Pool (Reset per
// trial) produces exactly the outcomes of a fresh session.New per
// trial.
func TestSessionReuseBitIdentical(t *testing.T) {
	cfg := core.DefaultConfig()
	const trials = 6
	seeds := make([]int64, trials)
	for i := range seeds {
		seeds[i] = runner.TrialSeed(3, i)
	}

	fresh := make([]trialOutcome, trials)
	for i, seed := range seeds {
		s := New(cfg)
		s.Reset(seed)
		fresh[i] = runTrial(s)
	}

	reused := make([]trialOutcome, trials)
	var p Pool
	for i, seed := range seeds {
		s := p.Acquire(cfg)
		s.Reset(seed)
		reused[i] = runTrial(s)
		p.Release(s)
	}
	if !reflect.DeepEqual(fresh, reused) {
		t.Fatalf("reused session diverged from fresh-per-trial:\nfresh:  %+v\nreused: %+v", fresh, reused)
	}
}

// kTrialOutcome is runTrialK's observable result for one k-way trial.
type kTrialOutcome struct {
	OK      []bool
	Bits    [][]byte
	Sources []string
	Iters   int
}

// runTrialK is runTrial at collision order k: k senders collide k
// times and the receptions decode jointly through the generalized SIC
// path. Everything random flows from the session Rng, as in runTrial.
func runTrialK(s *Session, k int) kTrialOutcome {
	rng := s.Rng
	payload := 90
	var metas []core.PacketMeta
	var waves [][]complex128
	var links []*channel.Params
	for i := 0; i < k; i++ {
		p := make([]byte, payload)
		rng.Read(p)
		f := &frame.Frame{Src: uint8(i + 1), Dst: 9, Seq: uint16(rng.Intn(100)), Scheme: modem.BPSK, Payload: p}
		freq := 0.002 - 0.0015*float64(i)
		link := s.Link(i)
		*link = *channel.RandomParams(rng, 15, 0.03, 0, 0.3, channel.TypicalISI(1))
		link.FreqOffset = freq
		w, err := s.Waveform(i, f)
		if err != nil {
			panic(err)
		}
		waves = append(waves, append([]complex128(nil), w...))
		links = append(links, link)
		metas = append(metas, core.PacketMeta{Scheme: modem.BPSK, Freq: freq * 0.98, BitLen: f.BitLen()})
	}
	s.Air.NoisePower = 0.03
	s.Air.RandomizePhase = true
	mkRec := func(offs []int) *core.Reception {
		var ems []channel.Emission
		n := 0
		for i, off := range offs {
			ems = append(ems, channel.Emission{Samples: waves[i], Link: links[i], Offset: off})
			if end := off + len(waves[i]) + 60; end > n {
				n = end
			}
		}
		rx := s.Mix(n, ems...)
		rec := &core.Reception{Samples: append([]complex128(nil), rx...)}
		for i, off := range offs {
			if sync, ok := s.Sync.Measure(rec.Samples, off, 3, metas[i].Freq); ok {
				rec.Packets = append(rec.Packets, core.Occurrence{Packet: i, Sync: sync})
			}
		}
		return rec
	}
	var recs []*core.Reception
	for r := 0; r < k; r++ {
		offs := make([]int, k)
		offs[0] = 40
		for j := 1; j < k; j++ {
			offs[j] = 40 + 20*(1+rng.Intn(25))
		}
		recs = append(recs, mkRec(offs))
	}
	res, err := s.Decode(metas, recs)
	var out kTrialOutcome
	if err != nil {
		return out
	}
	out.Iters = res.Iterations
	for i := range res.Packets {
		out.OK = append(out.OK, res.Packets[i].OK())
		out.Bits = append(out.Bits, res.Packets[i].Bits)
		out.Sources = append(out.Sources, res.Packets[i].Source)
	}
	return out
}

// TestSessionReuseBitIdenticalK3 extends the reuse contract to the
// generalized k-way decode: a session recycled across k=3 trials
// produces exactly the outcomes of a fresh session per trial — the
// pooled decode scratch holds no state that leaks between three-packet
// joint decodes.
func TestSessionReuseBitIdenticalK3(t *testing.T) {
	cfg := core.DefaultConfig()
	const trials = 4
	seeds := make([]int64, trials)
	for i := range seeds {
		seeds[i] = runner.TrialSeed(21, i)
	}

	fresh := make([]kTrialOutcome, trials)
	for i, seed := range seeds {
		s := New(cfg)
		s.Reset(seed)
		fresh[i] = runTrialK(s, 3)
	}

	reused := make([]kTrialOutcome, trials)
	s := New(cfg)
	for i, seed := range seeds {
		s.Reset(seed)
		reused[i] = runTrialK(s, 3)
	}
	if !reflect.DeepEqual(fresh, reused) {
		t.Fatalf("reused session diverged from fresh-per-trial at k=3:\nfresh:  %+v\nreused: %+v", fresh, reused)
	}
}

// TestResetRandMatchesReset pins the two lifecycle entry points against
// each other: Reset(TrialSeed(base, i)) and ResetRand(NewRand(base, i))
// install identical streams.
func TestResetRandMatchesReset(t *testing.T) {
	cfg := core.DefaultConfig()
	a, b := New(cfg), New(cfg)
	for i := 0; i < 4; i++ {
		a.Reset(runner.TrialSeed(11, i))
		b.ResetRand(runner.NewRand(11, i))
		va, vb := runTrial(a), runTrial(b)
		if !reflect.DeepEqual(va, vb) {
			t.Fatalf("trial %d: Reset and ResetRand diverged", i)
		}
	}
}

// TestMapMatchesSerialAndWorkers pins Map to the serial reference at
// several worker counts — the pooled engine keeps the runner's
// byte-identity guarantee.
func TestMapMatchesSerialAndWorkers(t *testing.T) {
	cfg := core.DefaultConfig()
	run := func(workers int) []trialOutcome {
		return Map(cfg, runner.Batch{Hi: 8}, workers, 5, func(s *Session, _ int) trialOutcome {
			return runTrial(s)
		})
	}
	ref := run(1)
	for _, w := range []int{2, 4} {
		if got := run(w); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d diverged from serial reference", w)
		}
	}
}

// TestMapSubRangeMatchesWhole pins global-index seeding through the
// session wrapper: Map over any sub-range of a sweep, at any worker
// count, returns exactly that slice of the whole run — the session half
// of the counting sweeps' shard-split byte identity.
func TestMapSubRangeMatchesWhole(t *testing.T) {
	cfg := core.DefaultConfig()
	const trials = 8
	trial := func(s *Session, _ int) trialOutcome { return runTrial(s) }
	whole := Map(cfg, runner.Batch{Hi: trials}, 1, 5, trial)
	for _, sub := range []runner.Batch{{Lo: 3, Hi: 7}, {Lo: 5, Hi: 6}, runner.ShardRange(trials, 7, 6)} {
		for _, w := range []int{1, 2, 4} {
			if got := Map(cfg, sub, w, 5, trial); !reflect.DeepEqual(got, whole[sub.Lo:sub.Hi]) {
				t.Fatalf("range %+v workers=%d diverged from the whole run's slice", sub, w)
			}
		}
	}
}

// TestPoolRecyclesByConfig checks Acquire/Release round-trips sessions
// per config.
func TestPoolRecyclesByConfig(t *testing.T) {
	var p Pool
	cfgA := core.DefaultConfig()
	cfgB := core.DefaultConfig()
	cfgB.DisableBackward = true
	a := p.Acquire(cfgA)
	p.Release(a)
	if got := p.Acquire(cfgA); got != a {
		t.Error("same-config acquire did not recycle the released session")
	}
	p.Release(a)
	if got := p.Acquire(cfgB); got == a {
		t.Error("different-config acquire returned the wrong session")
	}
}

// TestSteadyStateSessionAllocs pins the resource win: steady-state
// pooled trials allocate well under half of what world-per-trial
// construction does (the remaining allocations are caller-owned results
// and per-trial frames).
func TestSteadyStateSessionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts; the ratio pin is meaningless here")
	}
	cfg := core.DefaultConfig()
	s := New(cfg)
	trial := func(sess *Session, i int) {
		sess.Reset(runner.TrialSeed(9, i%4))
		runTrial(sess)
	}
	for i := 0; i < 4; i++ {
		trial(s, i) // grow arenas to steady state
	}
	i := 0
	pooled := testing.AllocsPerRun(8, func() { trial(s, i); i++ })
	fresh := testing.AllocsPerRun(8, func() { trial(New(cfg), i); i++ })
	if pooled > fresh/2 {
		t.Errorf("steady-state pooled trial allocates %.0f/run vs %.0f fresh — session reuse is not engaging", pooled, fresh)
	}
}
