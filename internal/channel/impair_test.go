package channel

import (
	"math"
	"math/rand"
	"testing"

	"zigzag/internal/impair"
)

// impairScenario builds a deterministic two-emission collision through
// realistic links.
func impairScenario(seed int64) (*Air, []Emission, int) {
	rng := rand.New(rand.NewSource(seed))
	wave := func(n int) []complex128 {
		w := make([]complex128, n)
		for i := range w {
			if rng.Intn(2) == 0 {
				w[i] = 1
			} else {
				w[i] = -1
			}
		}
		return w
	}
	linkA := &Params{Gain: complex(0.9, 0.3), FreqOffset: 0.003, SamplingOffset: 0.21, ISI: TypicalISI(1)}
	linkB := &Params{Gain: complex(-0.5, 0.6), FreqOffset: -0.002, SamplingOffset: -0.33}
	ems := []Emission{
		{Samples: wave(900), Link: linkA, Offset: 40},
		{Samples: wave(900), Link: linkB, Offset: 420},
	}
	air := &Air{NoisePower: 0.02, Rng: rand.New(rand.NewSource(seed + 1)), RandomizePhase: true}
	return air, ems, 1400
}

// checksum folds a sample buffer into a stable 64-bit FNV digest.
func checksum(buf []complex128) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= 1099511628211
		}
	}
	for _, c := range buf {
		mix(math.Float64bits(real(c)))
		mix(math.Float64bits(imag(c)))
	}
	return h
}

// staticMixGolden pins the static channel path: the exact digest of
// the impairScenario(42) mix rendered through the default polyphase
// resampler and the kern rotation kernel (re-pinned when dsp.Rotate
// moved to kern.MulTone; the previous Rotator-recurrence digest was
// 0xa235ed69f93bc1bf, and the two agree to ≤1e-9 of the signal scale).
// Any change to this value means the nil-impairment path's waveform
// changed. The SSE2 and purego forms of the kernels render this
// static path to the same bits.
const staticMixGolden uint64 = 0x92e333dca7a40a96

// TestMixNilImpairGolden pins the acceptance criterion "a nil
// impairment chain is bit-identical to the static path": nil chain,
// empty chain, and the chain of a zero impair.Profile must all
// reproduce the static digest.
func TestMixNilImpairGolden(t *testing.T) {
	render := func(configure func(a *Air)) uint64 {
		air, ems, n := impairScenario(42)
		configure(air)
		return checksum(air.Mix(n, ems...))
	}
	static := render(func(a *Air) {})
	if static != staticMixGolden {
		t.Fatalf("static path digest %#x, want pinned %#x", static, staticMixGolden)
	}
	if got := render(func(a *Air) { a.Impair = &impair.Chain{} }); got != static {
		t.Fatalf("empty chain digest %#x, want static %#x", got, static)
	}
	if got := render(func(a *Air) { a.Impair = impair.Profile{}.Chain() }); got != static {
		t.Fatalf("zero-profile chain digest %#x, want static %#x", got, static)
	}
	// And an *active* chain must not be identical (the hook actually runs).
	full := impair.Profile{Doppler: 3e-4, InterfDuty: 0.3, DriftRate: 1e-7, ADCBits: 8}.Chain()
	full.Reset(7)
	if got := render(func(a *Air) { a.Impair = full }); got == static {
		t.Fatal("active chain produced the static digest — impairments not applied")
	}
}

// TestMixImpairDeterminism pins reception-level reproducibility: two
// airs with identically seeded chains and rngs render identical
// impaired mixes, and the trajectory depends on the chain seed.
func TestMixImpairDeterminism(t *testing.T) {
	render := func(chainSeed int64) []complex128 {
		air, ems, n := impairScenario(11)
		ch := impair.Profile{Doppler: 5e-4, RicianK: 3, InterfDuty: 0.2, PhaseNoise: 1e-3}.Chain()
		ch.Reset(chainSeed)
		air.Impair = ch
		out := air.Mix(n, ems...)
		cp := make([]complex128, len(out))
		copy(cp, out)
		return cp
	}
	a, b := render(5), render(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("identically seeded impaired mixes diverge at sample %d", i)
		}
	}
	if checksum(render(6)) == checksum(a) {
		t.Fatal("chain seed does not influence the mix")
	}
}

// TestMixImpairAllocFree pins the acceptance criterion "the
// steady-state mix+impair path is 0 allocs/op": rendering a collision
// through a full chain (fading, multipath, drift, interferer, ADC)
// into a reused buffer allocates nothing once scratch is grown.
func TestMixImpairAllocFree(t *testing.T) {
	air, ems, n := impairScenario(99)
	ch := impair.Profile{
		Doppler: 3e-4, RicianK: 2, MultipathDoppler: 2e-4,
		DriftRate: 1e-7, PhaseNoise: 1e-3, InterfDuty: 0.2, ADCBits: 10,
	}.Chain()
	ch.Reset(21)
	air.Impair = ch
	var dst []complex128
	op := func() {
		dst = air.MixInto(dst, n, ems...)
	}
	op() // warm up: grow mix buffer and model scratch
	if got := testing.AllocsPerRun(50, op); got != 0 {
		t.Errorf("mix+impair: %v allocs per run in steady state, want 0", got)
	}
}

// End-to-end mix benchmarks: the collision generator's per-reception
// cost with the impairment chain off (the static paper channel) and
// fully on. make bench-impair runs them.
func benchMix(b *testing.B, chain *impair.Chain) {
	air, ems, n := impairScenario(99)
	air.Impair = chain
	var dst []complex128
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = air.MixInto(dst, n, ems...)
	}
}

func BenchmarkMixStatic(b *testing.B) { benchMix(b, nil) }

func BenchmarkMixImpairFullChain(b *testing.B) {
	ch := impair.Profile{
		Doppler: 3e-4, RicianK: 2, MultipathDoppler: 2e-4,
		DriftRate: 1e-7, PhaseNoise: 1e-3, InterfDuty: 0.2, ADCBits: 10,
	}.Chain()
	ch.Reset(21)
	benchMix(b, ch)
}

func BenchmarkMixImpairFadingOnly(b *testing.B) {
	ch := impair.Profile{Doppler: 3e-4}.Chain()
	ch.Reset(21)
	benchMix(b, ch)
}
