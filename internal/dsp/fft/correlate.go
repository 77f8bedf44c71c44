package fft

import (
	"math/bits"
	"math/cmplx"
	"sync"

	"zigzag/internal/dsp"
)

// Crossover thresholds for the naive-vs-FFT dispatch in Correlate. The
// FFT engine amortizes two size-n transforms over n−M+1 outputs per
// block plus a once-per-call reference transform, so it loses to the
// naive kernel when the reference is short (few multiplies per output
// anyway) or the profile is short (setup never amortizes). The defaults
// were chosen from BenchmarkCrossover in this package on amd64; they
// put the 64-sample preamble detector and the 512-sample LocatePacket
// window on the FFT path for realistic buffers while keeping tiny
// unit-test correlations on the exact naive kernel.
const (
	// CrossoverRefLen is the minimum reference length for the FFT path.
	CrossoverRefLen = 48
	// CrossoverMinOutputs is the minimum profile length for the FFT path.
	CrossoverMinOutputs = 96
)

// Scratch holds the reusable working storage of the correlation engine:
// the conjugated pre-rotated reference, its spectrum, and one
// overlap-save block. A Scratch grows to the plan size of the largest
// correlation it has served and is then allocation-free. The zero value
// is ready to use. A Scratch must not be used from multiple goroutines
// at once.
type Scratch struct {
	cref  []complex128 // conjugated, frequency-pre-rotated reference
	spec  []complex128 // reference spectrum (bit-reversed order, 1/n folded in)
	block []complex128 // overlap-save block
}

func (s *Scratch) ensure(n int) {
	if cap(s.spec) < n {
		s.spec = make([]complex128, n)
		s.block = make([]complex128, n)
	}
	s.spec = s.spec[:n]
	s.block = s.block[:n]
}

// scratchPools pools Scratches per plan size for callers that do not
// thread their own (e.g. one-shot LocatePacket calls), so even those
// reach steady state without per-call allocation.
var scratchPools sync.Map // int → *sync.Pool

func getScratch(n int) *Scratch {
	pi, ok := scratchPools.Load(n)
	if !ok {
		pi, _ = scratchPools.LoadOrStore(n, &sync.Pool{New: func() any { return new(Scratch) }})
	}
	s := pi.(*sync.Pool).Get().(*Scratch)
	s.ensure(n)
	return s
}

func putScratch(n int, s *Scratch) {
	if pi, ok := scratchPools.Load(n); ok {
		pi.(*sync.Pool).Put(s)
	}
}

// Correlate computes dsp.CorrelateProfile(y, ref, freqStep), writing
// into dst (reused when capacity allows), choosing between the naive
// sliding kernel and the FFT overlap-save engine by the crossover
// heuristic above. s carries the working storage across calls and may
// be nil, in which case a pooled Scratch is used for the FFT path.
//
// The two kernels agree to rounding error (|Δ| ≲ 1e−12 of the profile
// scale — the reference pre-rotation is shared code, only the summation
// order differs), but not bit-exactly; results are still deterministic
// for fixed inputs, kernel choice included.
func Correlate(dst, y, ref []complex128, freqStep float64, s *Scratch) []complex128 {
	m := len(ref)
	if m == 0 || len(y) < m {
		return nil
	}
	out := len(y) - m + 1
	if m < CrossoverRefLen || out < CrossoverMinOutputs {
		if s == nil {
			return dsp.CorrelateWithRef(dst, y, dsp.ConjRotatedRef(nil, ref, freqStep))
		}
		s.cref = dsp.ConjRotatedRef(s.cref, ref, freqStep)
		return dsp.CorrelateWithRef(dst, y, s.cref)
	}
	return CorrelateProfileFFT(dst, y, ref, freqStep, s)
}

// CorrelateProfileFFT computes dsp.CorrelateProfile(y, ref, freqStep)
// by overlap-save frequency-domain correlation, writing into dst
// (reused when capacity allows). It always takes the FFT path
// regardless of the crossover heuristic. s may be nil, in which case a
// pooled Scratch is used.
func CorrelateProfileFFT(dst, y, ref []complex128, freqStep float64, s *Scratch) []complex128 {
	return correlateFFT(dst, y, ref, freqStep, s)
}

// correlateFFT is the overlap-save engine. The circular correlation of
// one block b against the conjugated reference c is
//
//	IFFT( conj(FFT(conj(c))) ⊙ FFT(b) )[d] = Σ_k c[k]·b[(d+k) mod n],
//
// which equals the linear correlation Σ_k c[k]·y[base+d+k] for
// d ∈ [0, n−M]; blocks therefore advance by step = n−M+1 and each
// contributes step outputs. The 1/n of the inverse transform and the
// conjugation are folded into the reference spectrum once per call, and
// both transforms run permutation-free (bit-reversed spectra cancel in
// the pointwise product).
func correlateFFT(dst, y, ref []complex128, freqStep float64, s *Scratch) []complex128 {
	m := len(ref)
	if m == 0 || len(y) < m {
		return nil
	}
	out := len(y) - m + 1
	n := planSize(m, len(y))
	if s == nil {
		s = getScratch(n)
		defer putScratch(n, s)
	} else {
		s.ensure(n)
	}
	p := PlanFor(n)
	s.cref = dsp.ConjRotatedRef(s.cref, ref, freqStep)

	spec := s.spec
	for k, v := range s.cref {
		spec[k] = cmplx.Conj(v)
	}
	zero(spec[m:])
	p.forwardScrambled(spec)
	invN := complex(1/float64(n), 0)
	for i := range spec {
		spec[i] = cmplx.Conj(spec[i]) * invN
	}

	dst = ensure(dst, out)
	step := n - m + 1
	blk := s.block
	for base := 0; base < out; base += step {
		end := base + n
		if end > len(y) {
			end = len(y)
		}
		c := copy(blk, y[base:end])
		zero(blk[c:])
		p.forwardScrambled(blk)
		p.inverseScrambledProduct(blk, spec)
		keep := step
		if rest := out - base; rest < keep {
			keep = rest
		}
		copy(dst[base:base+keep], blk[:keep])
	}
	return dst
}

// planSize picks the FFT block size for a reference of length m sliding
// over a buffer of length ly: at least 4·M rounded up to a power of two
// — enough that ≥3/4 of every block is fresh output — bumped to the
// next odd log₂ size when needed so the transforms end in the fused
// 8-point sweep (amortized cost is nearly flat in n, so the bump is
// free), and capped at the single-block size when the whole buffer fits
// in less.
func planSize(m, ly int) int {
	n := NextPow2(4 * m)
	if bits.TrailingZeros(uint(n))&1 == 0 {
		n <<= 1
	}
	if full := NextPow2(ly); full < n {
		n = full
	}
	return n
}

func zero(x []complex128) {
	for i := range x {
		x[i] = 0
	}
}

// ensure returns dst resized to length n, reusing its backing array
// when the capacity allows.
func ensure(dst []complex128, n int) []complex128 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]complex128, n)
}
