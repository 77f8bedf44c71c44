package kern

import (
	"math/rand"
	"testing"
)

// Kernel microbenchmarks over a 4096-sample emission — the unit the
// impair chain processes. b.SetBytes reports throughput per complex
// sample (16 bytes) so ns/sample is directly readable.

const benchN = 4096

func benchPlanes(n int) (re, im []float64) {
	return make([]float64, n), make([]float64, n)
}

func benchBuf(n int) []complex128 {
	rng := rand.New(rand.NewSource(1))
	buf := make([]complex128, n)
	for i := range buf {
		buf[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return buf
}

func BenchmarkAccum16(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	amp, phase, step := randBank(rng, 16)
	re, im := benchPlanes(benchN)
	b.SetBytes(benchN * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Zero(re)
		Zero(im)
		Accum(re, im, amp, phase, step)
	}
}

func BenchmarkMulPlanes(b *testing.B) {
	buf := benchBuf(benchN)
	re, im := benchPlanes(benchN)
	b.SetBytes(benchN * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulPlanes(buf, re, im, 0.5, 0.5)
	}
}

func BenchmarkAccMulDelayed(b *testing.B) {
	dst := benchBuf(benchN)
	src := benchBuf(benchN)
	re, im := benchPlanes(benchN)
	b.SetBytes(benchN * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AccMulDelayed(dst, src, re, im, 1)
	}
}

func BenchmarkMulTaps3(b *testing.B) {
	buf := benchBuf(benchN)
	re, im := benchPlanes(3 * benchN)
	b.SetBytes(benchN * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulTaps(buf, re, im, 3)
	}
}

func BenchmarkRotateQuad(b *testing.B) {
	buf := benchBuf(benchN)
	b.SetBytes(benchN * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RotateQuad(buf, 3e-7, nil)
	}
}

func BenchmarkRotateQuadWalk(b *testing.B) {
	buf := benchBuf(benchN)
	rng := rand.New(rand.NewSource(3))
	deltas := make([]float64, benchN)
	for i := range deltas {
		deltas[i] = 0.002 * rng.NormFloat64()
	}
	b.SetBytes(benchN * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RotateQuad(buf, 3e-7, deltas)
	}
}

func BenchmarkAddTone(b *testing.B) {
	buf := benchBuf(benchN)
	b.SetBytes(benchN * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddTone(buf, 0.6, 1.0, 0.3)
	}
}

func BenchmarkClipQuant(b *testing.B) {
	buf := benchBuf(benchN)
	b.SetBytes(benchN * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ClipQuant(buf, 4.0, 127)
	}
}

// BenchmarkMulTone times the tone multiply on the Go loop and on the
// build's kernel (the SSE2 form under amd64 && !purego).
func BenchmarkMulTone(b *testing.B) {
	for _, form := range []struct {
		name string
		asm  bool
	}{{"go", false}, {"kernel", haveMulToneAsm}} {
		b.Run(form.name, func(b *testing.B) {
			buf := benchBuf(benchN)
			b.SetBytes(benchN * 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mulTone(buf, 0.6, 0.003, form.asm)
			}
		})
	}
}
