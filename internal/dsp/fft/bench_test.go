package fft

import (
	"fmt"
	"math/rand"
	"testing"

	"zigzag/internal/dsp"
)

// BenchmarkCorrelateProfile compares the naive sliding kernel against
// the overlap-save engine on the detection stack's hot shape: the
// 64-sample preamble reference (32 BPSK bits × 2 samples/symbol) slid
// across a 64k-sample reception, with frequency compensation — the
// per-client profile the collision detector computes for every
// reception (§4.2.1).
func BenchmarkCorrelateProfile(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ref := randVec(r, 64)
	y := randVec(r, 1<<16)
	const freq = 0.003
	b.Run("naive", func(b *testing.B) {
		var dst []complex128
		cref := dsp.ConjRotatedRef(nil, ref, freq)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = dsp.CorrelateWithRef(dst, y, cref)
		}
	})
	b.Run("fft", func(b *testing.B) {
		var s Scratch
		var dst []complex128
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = CorrelateProfileFFT(dst, y, ref, freq, &s)
		}
	})
}

// BenchmarkCorrelateProfileWide runs the same comparison at the
// LocatePacket shape: a 512-sample data window over a long reception
// (§4.2.2's full-data-width correlation trick).
func BenchmarkCorrelateProfileWide(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	ref := randVec(r, 512)
	y := randVec(r, 1<<16)
	b.Run("naive", func(b *testing.B) {
		var dst []complex128
		cref := dsp.ConjRotatedRef(nil, ref, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = dsp.CorrelateWithRef(dst, y, cref)
		}
	})
	b.Run("fft", func(b *testing.B) {
		var s Scratch
		var dst []complex128
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = CorrelateProfileFFT(dst, y, ref, 0, &s)
		}
	})
}

// BenchmarkCrossover sweeps reference lengths at a fixed buffer so the
// dispatch thresholds can be re-derived on new hardware: the FFT column
// should win from roughly CrossoverRefLen up.
func BenchmarkCrossover(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	y := randVec(r, 1<<14)
	for _, m := range []int{16, 32, 48, 64, 128, 512} {
		ref := randVec(r, m)
		b.Run(fmt.Sprintf("m=%d/naive", m), func(b *testing.B) {
			var dst []complex128
			cref := dsp.ConjRotatedRef(nil, ref, 0.01)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = dsp.CorrelateWithRef(dst, y, cref)
			}
		})
		b.Run(fmt.Sprintf("m=%d/fft", m), func(b *testing.B) {
			var s Scratch
			var dst []complex128
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = CorrelateProfileFFT(dst, y, ref, 0.01, &s)
			}
		})
	}
}

// BenchmarkFFT measures the two scrambled-order transforms of the
// overlap-save correlator at serve-live's plan sizes: 512 points for
// preamble detection, 2,048 for store matching. "forward" is one
// forwardScrambled, "inverse" one out-of-place inverseScrambledProduct
// (the spectrum product fused in). A forward op copies the block in
// first, as correlateFFT does, so every transform sees unit-scale data.
func BenchmarkFFT(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	for _, n := range []int{512, 2048} {
		x := randVec(r, n)
		spec := randVec(r, n)
		dst := make([]complex128, n)
		p := PlanFor(n)
		b.Run(fmt.Sprintf("forward/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(dst, x)
				p.forwardScrambled(dst)
			}
		})
		b.Run(fmt.Sprintf("inverse/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.inverseScrambledProduct(dst, x, spec)
			}
		})
	}
}
