package phy

import (
	"math/rand"
	"reflect"
	"testing"

	"zigzag/internal/dsp"
)

// collisionBuffer builds a buffer with two preamble-led packets over
// noise, the detector's realistic input shape.
func collisionBuffer(t *testing.T, cfg Config, seed int64, n int) []complex128 {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	rx := make([]complex128, n)
	for i := range rx {
		rx[i] = complex(0.05*r.NormFloat64(), 0.05*r.NormFloat64())
	}
	wave := cfg.PreambleWave()
	for _, off := range []int{200, n / 2} {
		for k, v := range wave {
			rx[off+k] += v
		}
	}
	return rx
}

// naiveDetect is Detect with the profile from the naive O(N·M)
// correlator (dsp.CorrelateProfile) instead of the dispatching engine.
func naiveDetect(sy *Synchronizer, rx []complex128, freq, beta, refAmp float64) []Sync {
	pd := dsp.PeakDetector{Beta: beta, RefAmp: refAmp, MinSpacing: len(sy.wave) / 2}
	var syncs []Sync
	for _, p := range pd.FindInto(nil, dsp.CorrelateProfile(rx, sy.wave, freq), sy.energy) {
		syncs = append(syncs, sy.syncFromPeak(p))
	}
	return syncs
}

// TestDetectFFTMatchesNaive pins the rewiring: Detect through the FFT
// engine must find the same packets, at the same positions, as the
// naive kernel it replaced.
func TestDetectFFTMatchesNaive(t *testing.T) {
	cfg := Default()
	rx := collisionBuffer(t, cfg, 50, 4096)
	fftSyncs := NewSynchronizer(cfg).Detect(rx, 0.002, 0.5, 1)
	naiveSyncs := naiveDetect(NewSynchronizer(cfg), rx, 0.002, 0.5, 1)
	if len(fftSyncs) != 2 {
		t.Fatalf("detected %d packets, want 2", len(fftSyncs))
	}
	if len(fftSyncs) != len(naiveSyncs) {
		t.Fatalf("fft found %d syncs, naive %d", len(fftSyncs), len(naiveSyncs))
	}
	for i := range fftSyncs {
		if fftSyncs[i].RefPos != naiveSyncs[i].RefPos {
			t.Errorf("sync %d: fft pos %d, naive pos %d", i, fftSyncs[i].RefPos, naiveSyncs[i].RefPos)
		}
		if d := fftSyncs[i].Mag - naiveSyncs[i].Mag; d > 1e-6 || d < -1e-6 {
			t.Errorf("sync %d: magnitude differs by %g", i, d)
		}
	}
}

// TestDetectScratchReuse verifies that the Synchronizer's internal
// buffers carry no state between calls: interleaving different buffers
// and frequencies must reproduce the fresh-synchronizer results.
func TestDetectScratchReuse(t *testing.T) {
	cfg := Default()
	rxA := collisionBuffer(t, cfg, 51, 4096)
	rxB := collisionBuffer(t, cfg, 52, 1024) // different size: scratch regrows
	sy := NewSynchronizer(cfg)
	wantA := NewSynchronizer(cfg).Detect(rxA, 0.001, 0.5, 1)
	wantB := NewSynchronizer(cfg).Detect(rxB, -0.003, 0.5, 1)
	for round := 0; round < 3; round++ {
		if got := sy.Detect(rxA, 0.001, 0.5, 1); !reflect.DeepEqual(got, wantA) {
			t.Fatalf("round %d: buffer A diverged after scratch reuse", round)
		}
		if got := sy.Detect(rxB, -0.003, 0.5, 1); !reflect.DeepEqual(got, wantB) {
			t.Fatalf("round %d: buffer B diverged after scratch reuse", round)
		}
	}
}

// TestDetectSteadyStateAllocs bounds the steady-state detect path: with
// the profile and transform buffers owned by the Synchronizer, per-call
// allocations are limited to the returned peak/sync slices and do not
// scale with the buffer length.
func TestDetectSteadyStateAllocs(t *testing.T) {
	cfg := Default()
	small := collisionBuffer(t, cfg, 53, 1<<12)
	large := collisionBuffer(t, cfg, 53, 1<<15)
	sy := NewSynchronizer(cfg)
	sy.Detect(large, 0.002, 0.5, 1) // warm buffers to the largest size
	measure := func(rx []complex128) float64 {
		return testing.AllocsPerRun(20, func() { sy.Detect(rx, 0.002, 0.5, 1) })
	}
	aSmall, aLarge := measure(small), measure(large)
	if aLarge > 12 {
		t.Errorf("steady-state Detect allocates %v times per run, want ≤12 (result slices and sort scratch only)", aLarge)
	}
	if aLarge > aSmall {
		t.Errorf("Detect allocations grow with buffer size (%v → %v); profile buffer not reused", aSmall, aLarge)
	}
	// The profile itself must come from the reusable buffer: Profile
	// (the diagnostic API) returns a fresh copy instead.
	p1 := sy.Profile(small, 0.002)
	p2 := sy.Profile(small, 0.002)
	if &p1[0] == &p2[0] {
		t.Error("Profile returned the internal buffer; successive calls alias")
	}
}
