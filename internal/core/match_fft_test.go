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
	want := s.pick(cfg, dsp.CorrelateProfile(fresh, ref, 0), fresh, ref, skip, 3)
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
			s.pick(cfg, dsp.CorrelateProfile(fresh, ref, 0), fresh, ref, skip, 3)
		}
	})
	b.Run("fft", func(b *testing.B) {
		var s locateScratch
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			locatePacket(cfg, stored, start, fresh, 3, &s)
		}
	})
}

// TestLocatePacketSteadyStateAllocs pins the threaded-scratch
// guarantee on the store-matching path: with a warmed locateScratch the
// only steady-state allocation is the small result slice.
func TestLocatePacketSteadyStateAllocs(t *testing.T) {
	cfg, stored, start, fresh, _ := syntheticLocateScenario(62, 1<<14)
	var s locateScratch
	locatePacket(cfg, stored, start, fresh, 3, &s)
	if allocs := testing.AllocsPerRun(10, func() {
		locatePacket(cfg, stored, start, fresh, 3, &s)
	}); allocs > 3 {
		t.Errorf("steady-state locatePacket allocates %v times per run, want ≤3 (result-slice growth only)", allocs)
	}
}
