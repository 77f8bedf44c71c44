package impair

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"zigzag/internal/runner"
)

// TestWorkerByteIdentityPerModel pins the satellite requirement that
// every impairment model is byte-identical across worker counts: a
// Monte-Carlo sweep of chain applications (per-trial seeds through the
// runner's splitmix derivation, per-worker model instances with dirty
// scratch) must reduce to the same digests at workers 1, 2 and NumCPU.
func TestWorkerByteIdentityPerModel(t *testing.T) {
	trials := 48
	if testing.Short() {
		trials = 16
	}
	profiles := map[string]Profile{
		"fading-rayleigh": {Doppler: 3e-4},
		"fading-rician":   {Doppler: 3e-4, RicianK: 8},
		"fading-block":    {Doppler: 3e-4, CoherenceBlock: 64},
		"multipath":       {MultipathDoppler: 2e-4},
		"drift":           {DriftRate: 5e-7, PhaseNoise: 2e-3},
		"interferer":      {InterfDuty: 0.25, InterfAmp: 0.8},
		"adc":             {ADCBits: 6},
		"composed":        {Doppler: 3e-4, RicianK: 2, MultipathDoppler: 2e-4, DriftRate: 1e-7, InterfDuty: 0.2, ADCBits: 10},
	}
	in := testBuf(1500, 13)
	sweep := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		sweep = append(sweep, n)
	}
	for name, prof := range profiles {
		run := func(workers int) []uint64 {
			return runner.Map(runner.Batch{Hi: trials}, runner.Options{Workers: workers, BaseSeed: 17},
				func() *Chain { return prof.Chain() }, // per-worker chain, scratch accumulates
				nil,
				func(c *Chain, trial int, _ *rand.Rand) uint64 {
					c.Reset(runner.TrialSeed(17, trial))
					buf := make([]complex128, len(in))
					copy(buf, in)
					c.BeginReception()
					c.ImpairEmission(0, buf, 40)
					c.ImpairFront(buf)
					return digest(buf)
				})
		}
		ref := run(1)
		for _, w := range sweep[1:] {
			got := run(w)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s: workers=%d trial %d diverged from serial reference", name, w, i)
				}
			}
		}
	}
}

// digest folds a buffer into a 64-bit FNV word.
func digest(buf []complex128) uint64 {
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

// TestImpairEmissionsMatchesSequential pins the batched rendering
// contract: ImpairEmissions over a whole reception is byte-identical
// to per-emission ImpairEmission calls, for every link model and the
// composed chain, across emission counts and unequal buffer shapes.
// (The batch iterates model-outer for cache locality; each
// (emission, model) pair still derives its own stream seed, so the
// order swap must not be observable.)
func TestImpairEmissionsMatchesSequential(t *testing.T) {
	profiles := map[string]Profile{
		"fading":     {Doppler: 3e-4, RicianK: 4},
		"multipath":  {MultipathDoppler: 2e-4},
		"drift":      {DriftRate: 5e-7, PhaseNoise: 2e-3},
		"interferer": {InterfDuty: 0.25, InterfAmp: 0.8},
		"composed":   {Doppler: 3e-4, RicianK: 2, MultipathDoppler: 2e-4, DriftRate: 1e-7, InterfDuty: 0.2, ADCBits: 10},
	}
	for name, prof := range profiles {
		for _, ems := range []int{1, 2, 3, 7} {
			render := func() ([][]complex128, []int) {
				bufs := make([][]complex128, ems)
				offs := make([]int, ems)
				for em := range bufs {
					bufs[em] = testBuf(700+137*em, int64(100*em+3))
					offs[em] = 29 * em
				}
				return bufs, offs
			}
			seq, offs := render()
			c := prof.Chain()
			c.Reset(99)
			c.BeginReception()
			for em := range seq {
				c.ImpairEmission(em, seq[em], offs[em])
			}
			bat, offs := render()
			c = prof.Chain()
			c.Reset(99)
			c.BeginReception()
			c.ImpairEmissions(bat, offs)
			for em := range seq {
				if digest(seq[em]) != digest(bat[em]) {
					t.Fatalf("%s ems=%d: emission %d batched render diverged from sequential", name, ems, em)
				}
			}
		}
	}
}
