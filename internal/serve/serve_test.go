package serve

import (
	"hash/fnv"
	"io"
	"testing"

	"zigzag/internal/core"
	"zigzag/internal/phy"
	"zigzag/internal/session"
)

// coreStream is shorthand for a stream config bounding the pending
// queue at n receptions.
func coreStream(n int) core.StreamConfig {
	return core.StreamConfig{MaxPending: n}
}

// fakeClock is a deterministic Config.Now: each reading advances a
// fixed step, so latency and elapsed figures are pure functions of the
// engine's call pattern.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64 {
	c.t += 1000
	return c.t
}

// sliceSource serves a fixed sample buffer.
type sliceSource struct {
	buf []complex128
	pos int
}

func (s *sliceSource) Read(p []complex128) (int, error) {
	if s.pos >= len(s.buf) {
		return 0, io.EOF
	}
	n := copy(p, s.buf[s.pos:])
	s.pos += n
	return n, nil
}

// readAll drains a Source.
func readAll(t *testing.T, src Source) []complex128 {
	t.Helper()
	var out []complex128
	p := make([]complex128, 4096)
	for {
		n, err := src.Read(p)
		out = append(out, p[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("source read: %v", err)
		}
	}
}

// runEngine builds a fresh Synthetic for sc, serves it through an
// engine configured by ecfg (with a fake clock), and returns the
// report.
func runEngine(t *testing.T, sc SynthConfig, ecfg Config) *Report {
	t.Helper()
	g, err := NewSynthetic(sc)
	if err != nil {
		t.Fatalf("NewSynthetic: %v", err)
	}
	defer g.Close()
	ecfg.Clients = g.Clients()
	clk := &fakeClock{}
	ecfg.Now = clk.now
	e := NewEngine(ecfg)
	defer e.Close()
	rep, err := e.Run(g)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

// oneshotReport serves sc the one-shot way: a phy.Framer configured
// like the engine's cuts bursts out of the whole stream, and each burst
// goes straight through Receiver.Receive. It fills the report's
// deterministic counts and frame digest.
func oneshotReport(t *testing.T, sc SynthConfig) *Report {
	t.Helper()
	g, err := NewSynthetic(sc)
	if err != nil {
		t.Fatalf("NewSynthetic: %v", err)
	}
	defer g.Close()
	cfg := Config{Clients: g.Clients()}
	cfg.fillDefaults()
	z := session.New(cfg.Core).OnlineReceiver(cfg.Clients)
	fr := phy.NewFramer(phy.FramerConfig{
		Threshold: cfg.Stream.GateThreshold,
		IdleGap:   cfg.Stream.IdleGap,
		MaxWindow: cfg.Stream.MaxWindow,
	})
	rep := &Report{FrameDigest: fnv.New64a().Sum64()}
	onBurst := func(burst []complex128, info phy.BurstInfo) {
		rep.Receptions++
		rep.Polled++
		for _, ev := range z.Receive(burst) {
			if ev.Frame == nil {
				rep.Failed++
				continue
			}
			rep.Frames++
			switch ev.Via {
			case core.ViaStandard:
				rep.Standard++
			case core.ViaZigzag:
				rep.Zigzag++
			case core.ViaCapture:
				rep.Capture++
			}
			rep.FrameDigest = digestFrame(rep.FrameDigest, &ev)
		}
	}
	samples := readAll(t, g)
	rep.Samples = int64(len(samples))
	fr.Push(samples, onBurst)
	fr.Flush(onBurst)
	return rep
}

// TestEngineStreamingOneshotIdentity is the redesign's core contract:
// the engine's streaming Ingest/Poll front end and a one-shot
// framer-plus-Receive loop produce byte-identical frame streams for the
// same traffic.
func TestEngineStreamingOneshotIdentity(t *testing.T) {
	sc := SynthConfig{Seed: 7, Episodes: 8}
	stream := runEngine(t, sc, Config{})
	oneshot := oneshotReport(t, sc)

	if stream.Frames == 0 || stream.Zigzag == 0 || stream.Standard == 0 {
		t.Fatalf("stream decoded frames=%d standard=%d zigzag=%d; want all paths exercised",
			stream.Frames, stream.Standard, stream.Zigzag)
	}
	if stream.FrameDigest != oneshot.FrameDigest {
		t.Fatalf("frame digests differ: streaming %#x vs oneshot %#x",
			stream.FrameDigest, oneshot.FrameDigest)
	}
	type counts struct{ Samples, Receptions, Polled, Frames, Failed, Standard, Zigzag, Capture int64 }
	sc1 := counts{stream.Samples, stream.Receptions, stream.Polled, stream.Frames,
		stream.Failed, stream.Standard, stream.Zigzag, stream.Capture}
	sc2 := counts{oneshot.Samples, oneshot.Receptions, oneshot.Polled, oneshot.Frames,
		oneshot.Failed, oneshot.Standard, oneshot.Zigzag, oneshot.Capture}
	if sc1 != sc2 {
		t.Fatalf("count mismatch:\nstreaming %+v\noneshot   %+v", sc1, sc2)
	}
	if stream.Dropped != 0 {
		t.Fatalf("unloaded run dropped %d receptions", stream.Dropped)
	}
}

// TestEngineDigestGolden pins the frame digest and the per-path frame
// counts of fixed streams: what `zigzag-serve -json -payload 60 -seed 1`
// serves at -k 2 and -k 3. The SSE2 and the purego kernel forms must
// both decode to these constants. A k=3 episode costs about 110 ms
// against under 2 ms at k=2, so -short runs the k=3 stream at 12
// episodes, which still delivers through all three paths, and the full
// suite adds the 64-episode one.
func TestEngineDigestGolden(t *testing.T) {
	for _, tc := range []struct {
		k, episodes                       int
		digest                            uint64
		frames, standard, zigzag, capture int64
		long                              bool
	}{
		{2, 64, 5758092518429777827, 68, 15, 52, 1, false},
		{3, 12, 4440780409684193741, 18, 2, 15, 1, false},
		{3, 64, 1611712934076278826, 60, 7, 45, 8, true},
	} {
		if tc.long && testing.Short() {
			continue
		}
		rep := runEngine(t, SynthConfig{Seed: 1, K: tc.k, Episodes: tc.episodes, Payload: 60}, Config{})
		if rep.FrameDigest != tc.digest {
			t.Errorf("k=%d, %d episodes: frame digest %d, want %d", tc.k, tc.episodes, rep.FrameDigest, tc.digest)
		}
		got := [4]int64{rep.Frames, rep.Standard, rep.Zigzag, rep.Capture}
		if want := [4]int64{tc.frames, tc.standard, tc.zigzag, tc.capture}; got != want {
			t.Errorf("k=%d, %d episodes: frames/standard/zigzag/capture %v, want %v", tc.k, tc.episodes, got, want)
		}
	}
}

// TestEngineChunkInvariance pins that the engine's report is a pure
// function of the stream, not of how the source slices it.
func TestEngineChunkInvariance(t *testing.T) {
	sc := SynthConfig{Seed: 9, Episodes: 4}
	ref := runEngine(t, sc, Config{Chunk: 512})
	for _, chunk := range []int{1, 7, 64, 100000} {
		rep := runEngine(t, sc, Config{Chunk: chunk})
		if rep.FrameDigest != ref.FrameDigest {
			t.Fatalf("chunk %d: digest %#x != reference %#x", chunk, rep.FrameDigest, ref.FrameDigest)
		}
		if rep.Receptions != ref.Receptions || rep.Frames != ref.Frames || rep.Samples != ref.Samples {
			t.Fatalf("chunk %d: counts (%d recs, %d frames, %d samples) != reference (%d, %d, %d)",
				chunk, rep.Receptions, rep.Frames, rep.Samples,
				ref.Receptions, ref.Frames, ref.Samples)
		}
	}
}

// TestEngineOverloadShedsWithoutStalling drives 2× more receptions per
// poll opportunity than the budget allows: the bounded queue must shed
// (counted), the stream must still complete, and the newest data must
// still decode.
func TestEngineOverloadShedsWithoutStalling(t *testing.T) {
	sc := SynthConfig{Seed: 21, Episodes: 16}
	rep := runEngine(t, sc, Config{
		Chunk:      1 << 16, // whole episodes per read: bursts arrive faster than the budget drains
		PollBudget: 1,
		Stream:     coreStream(2),
	})
	if rep.Dropped == 0 {
		t.Fatalf("overloaded run shed nothing (receptions %d, polled %d)", rep.Receptions, rep.Polled)
	}
	if rep.Polled+rep.Dropped != rep.Receptions {
		t.Fatalf("accounting leak: polled %d + dropped %d != receptions %d",
			rep.Polled, rep.Dropped, rep.Receptions)
	}
	if rep.Frames == 0 {
		t.Fatalf("overloaded run decoded nothing; drop-oldest must keep serving the newest data")
	}
}

// TestEngineDegradePolicy pins the hysteresis: under backlog the
// receiver flips into degraded mode (skip store matching) at least
// once, and the engine restores full fidelity by end of stream.
func TestEngineDegradePolicy(t *testing.T) {
	sc := SynthConfig{Seed: 21, Episodes: 16}
	g, err := NewSynthetic(sc)
	if err != nil {
		t.Fatalf("NewSynthetic: %v", err)
	}
	defer g.Close()
	clk := &fakeClock{}
	e := NewEngine(Config{
		Clients:    g.Clients(),
		Chunk:      1 << 16,
		PollBudget: 1,
		Policy:     PolicyDegrade,
		Stream:     coreStream(4),
		HighWater:  2,
		LowWater:   1,
		Now:        clk.now,
	})
	defer e.Close()
	rep, err := e.Run(g)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.DegradedSpans == 0 {
		t.Fatalf("degrade policy never engaged (receptions %d, polled %d, dropped %d)",
			rep.Receptions, rep.Polled, rep.Dropped)
	}
	if e.Receiver().SkipStoreMatch {
		t.Fatalf("receiver left in degraded mode after the stream ended")
	}
}

// TestEngineReportDeterministic pins the wall-clock-free half of the
// report byte-for-byte under the fake clock: two identical runs must
// agree on everything, including elapsed and latency (which are pure
// functions of the call pattern under the fake clock).
func TestEngineReportDeterministic(t *testing.T) {
	sc := SynthConfig{Seed: 3, Episodes: 6}
	a := runEngine(t, sc, Config{})
	b := runEngine(t, sc, Config{})
	if a.FrameDigest != b.FrameDigest || a.Elapsed != b.Elapsed ||
		a.Frames != b.Frames || a.Latency.N() != b.Latency.N() {
		t.Fatalf("identical runs diverged: %+v vs %+v", a, b)
	}
	if int64(a.Latency.N()) != a.Polled {
		t.Fatalf("latency sketch has %d observations for %d polled receptions", a.Latency.N(), a.Polled)
	}
	if a.PacketsPerSec <= 0 {
		t.Fatalf("packets/sec not computed: %v", a.PacketsPerSec)
	}
}

// TestParsePolicy covers the flag spellings.
func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"drop-oldest": PolicyDropOldest, "drop": PolicyDropOldest, "degrade": PolicyDegrade} {
		got, ok := ParsePolicy(s)
		if !ok || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, ok)
		}
		if got.String() == "unknown" {
			t.Fatalf("policy %q has no name", s)
		}
	}
	if _, ok := ParsePolicy("nonsense"); ok {
		t.Fatalf("ParsePolicy accepted nonsense")
	}
}
