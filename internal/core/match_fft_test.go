package core

import (
	"math"
	"math/rand"
	"testing"

	"zigzag/internal/dsp"
)

// syntheticLocateScenario embeds the data window of a synthetic stored
// collision inside a long fresh reception at a known position, the
// LocatePacket workload without the full PHY setup (the correlation
// kernel only sees samples).
func syntheticLocateScenario(seed int64, freshLen int) (cfg Config, stored []complex128, storedStart float64, fresh []complex128, wantPos int) {
	cfg = DefaultConfig()
	r := rand.New(rand.NewSource(seed))
	stored = make([]complex128, 4096)
	for i := range stored {
		stored[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	storedStart = 40
	fresh = make([]complex128, freshLen)
	for i := range fresh {
		fresh[i] = complex(0.3*r.NormFloat64(), 0.3*r.NormFloat64())
	}
	wantPos = freshLen / 2
	// Re-embed the stored packet (from its start) so the data window
	// reappears at wantPos + skip.
	for k := 40; k < len(stored) && wantPos+k-40 < freshLen; k++ {
		fresh[wantPos+k-40] += stored[k]
	}
	return cfg, stored, storedStart, fresh, wantPos
}

// TestLocatePacketFFTMatchesNaive pins the rewiring of the wide-window
// matcher: the FFT path must return the same candidate positions as the
// naive kernel (dsp.CorrelateProfile), with scores agreeing to rounding
// error.
func TestLocatePacketFFTMatchesNaive(t *testing.T) {
	cfg, stored, start, fresh, wantPos := syntheticLocateScenario(60, 1<<14)
	got := LocatePacket(cfg, stored, start, fresh, 3)
	ref, skip := locateRef(cfg, stored, start)
	var s locateScratch
	want := s.pick(cfg, dsp.CorrelateProfile(fresh, ref, 0), dsp.WindowEnergy(nil, fresh, len(ref)), ref, skip, 3)
	if len(got) == 0 || got[0].Pos != wantPos {
		t.Fatalf("FFT path: best candidate %+v, want pos %d", got, wantPos)
	}
	if len(got) != len(want) {
		t.Fatalf("fft returned %d candidates, naive %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Pos != want[i].Pos {
			t.Errorf("candidate %d: fft pos %d, naive pos %d", i, got[i].Pos, want[i].Pos)
		}
		if d := math.Abs(got[i].Score - want[i].Score); d > 1e-9 {
			t.Errorf("candidate %d: scores differ by %g", i, d)
		}
	}
}

// BenchmarkLocatePacket compares the §4.2.2 wide-window matcher on the
// two kernels: a 512-sample data window located inside a 64k-sample
// fresh reception.
func BenchmarkLocatePacket(b *testing.B) {
	cfg, stored, start, fresh, _ := syntheticLocateScenario(61, 1<<16)
	b.Run("naive", func(b *testing.B) {
		ref, skip := locateRef(cfg, stored, start)
		var s locateScratch
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.pick(cfg, dsp.CorrelateProfile(fresh, ref, 0), dsp.WindowEnergy(nil, fresh, len(ref)), ref, skip, 3)
		}
	})
	b.Run("fft", func(b *testing.B) {
		var s locateScratch
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.locatePacket(cfg, stored, start, fresh, 3)
		}
	})
}

// TestLocatePacketSteadyStateAllocs pins the threaded-scratch
// guarantee on the store-matching path: with a warmed locateScratch a
// lookup allocates nothing, its result slice included, whether it
// shares a loaded reception or loads its own.
func TestLocatePacketSteadyStateAllocs(t *testing.T) {
	cfg, stored, start, fresh, _ := syntheticLocateScenario(62, 1<<14)
	var s locateScratch
	s.locatePacket(cfg, stored, start, fresh, 3)
	if allocs := testing.AllocsPerRun(10, func() {
		s.locatePacket(cfg, stored, start, fresh, 3)
	}); allocs != 0 {
		t.Errorf("steady-state one-shot lookup allocates %v times per run, want 0", allocs)
	}
	s.fresh.Load(fresh)
	if allocs := testing.AllocsPerRun(10, func() {
		s.locatePacket(cfg, stored, start, fresh, 3)
	}); allocs != 0 {
		t.Errorf("steady-state shared lookup allocates %v times per run, want 0", allocs)
	}
}

// TestLocateSharingSurvivesForeignLookups pins the shared fresh
// reception against interleaved lookups in other buffers, as the k-way
// assembly makes them: a short one (naive kernel) and a long one (FFT)
// in between must leave the loaded reception's candidates exactly as a
// one-shot LocatePacket finds them.
func TestLocateSharingSurvivesForeignLookups(t *testing.T) {
	cfg, stored, start, fresh, _ := syntheticLocateScenario(63, 1<<13)
	want := LocatePacket(cfg, stored, start, fresh, 3)
	// Faint copies: a stale window energy from either would inflate the
	// loaded reception's scores by 10⁶ wherever it leaked.
	faint := func(x []complex128) []complex128 {
		out := make([]complex128, len(x))
		for i, v := range x {
			out[i] = v * 1e-3
		}
		return out
	}
	short := faint(fresh[len(fresh)/2 : len(fresh)/2+MatchWindow+40])
	long := faint(fresh[:len(fresh)/2])
	var s locateScratch
	s.fresh.Load(fresh)
	for _, other := range [][]complex128{nil, short, long} {
		if other != nil {
			s.locatePacket(cfg, stored, start, other, 3)
		}
		got := s.locatePacket(cfg, stored, start, fresh, 3)
		if len(got) != len(want) {
			t.Fatalf("after a lookup in %d samples: %+v, one-shot %+v", len(other), got, want)
		}
		for i := range got {
			if got[i].Pos != want[i].Pos || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("after a lookup in %d samples: candidate %d %+v, one-shot %+v", len(other), i, got[i], want[i])
			}
		}
	}
}
