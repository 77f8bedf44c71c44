package fft

import (
	"math/bits"
	"math/cmplx"
	"slices"

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

// maxSpectra bounds the spectra one Reference caches. The preamble
// detector needs one per client CFO and plan size in use; beyond the
// bound entries are replaced round-robin and rebuilt on demand, which
// costs time but never changes a result.
const maxSpectra = 8

// Blocks is the buffer half of the overlap-save engine: the forward
// transforms of one buffer's blocks for one reference length, and the
// buffer's window energies for one window length. Load names a buffer
// whose transforms and energies the calls on it share: each block is
// transformed the first time a Correlate reaches it, and every later
// Correlate of that buffer against a reference of the same length
// reuses the transform until the next Load; Energy likewise computes
// the window energies once per window length. A reference of another
// length re-blocks the buffer. A call on any buffer that was not loaded
// ends the sharing and serves that buffer for itself alone, through one
// block-sized transform slot.
//
// Blocks never looks at a buffer again once a block is transformed or
// its energies computed, so a caller that rewrites a loaded buffer in
// place must Load it again before its next Correlate or Energy: reuse
// is tied to that call, never to the slice alone. The zero value is ready to use. A Blocks must not be used from
// multiple goroutines at once.
type Blocks struct {
	y      []complex128
	loaded bool         // y came from Load: its transforms outlive one call
	m, n   int          // reference length and plan size of the transforms in spec
	built  int          // blocks of spec transformed so far
	spec   []complex128 // loaded: block b's scrambled spectrum at [b·n, (b+1)·n); else one block's
	work   []complex128 // product/inverse output of one block
	energy []float64    // window energies of y for ew-sample windows
	ew     int          // window length of energy; 0: none computed
}

// Load makes y the buffer the following Correlate and Energy calls on y
// share, and drops the transforms and energies of the previous one.
func (b *Blocks) Load(y []complex128) {
	b.reset(y)
	b.loaded = true
}

// shares reports whether a call on y would reuse the transforms and
// energies of the last Load: whether y is that buffer.
func (b *Blocks) shares(y []complex128) bool {
	return b.loaded && len(y) == len(b.y) && (len(y) == 0 || &y[0] == &b.y[0])
}

func (b *Blocks) reset(y []complex128) {
	b.y, b.loaded = y, false
	b.m, b.n, b.built, b.ew = 0, 0, 0, 0
}

// Energy returns the energy of every w-sample window of y,
// dsp.WindowEnergy(y, w) — the normalizer of a correlation of y
// against a w-sample reference — shared like the transforms when y is
// the loaded buffer. It returns nil when y is shorter than w. The slice
// is b's, valid until the next call on b.
func (b *Blocks) Energy(y []complex128, w int) []float64 {
	if !b.shares(y) {
		b.reset(y)
	}
	if w < 1 || len(y) < w {
		return nil
	}
	if b.ew != w {
		b.energy = dsp.WindowEnergy(b.energy, y, w)
		b.ew = w
	}
	return b.energy
}

// Reference is the reference half of the overlap-save engine: one
// reference waveform and its spectra — conjugated, pre-rotated by a
// frequency offset (the paper's Γ'(Δ)), with the inverse transform's
// 1/n folded in. A spectrum is built on first use and cached per plan
// size and frequency offset (Set fixes the reference length and drops
// the cache), at most maxSpectra of them. The zero value is ready to
// use. A Reference must not be used from multiple goroutines at once.
type Reference struct {
	ref   []complex128
	cref  []complex128 // conjugated, pre-rotated reference (working storage)
	cache []refSpectrum
	next  int // round-robin replacement cursor once the cache is full
}

type refSpectrum struct {
	n    int
	freq float64
	spec []complex128
}

// Set makes ref the reference waveform and drops every cached spectrum
// (their storage is kept for reuse). Set(nil) releases the waveform.
func (r *Reference) Set(ref []complex128) {
	r.ref = ref
	r.cache = r.cache[:0]
	r.next = 0
}

// Samples returns the reference waveform.
func (r *Reference) Samples() []complex128 { return r.ref }

// spectrum returns the reference spectrum for plan p at freqStep,
// building and caching it on a miss.
func (r *Reference) spectrum(p *Plan, freqStep float64) []complex128 {
	n, m := p.n, len(r.ref)
	for i := range r.cache {
		if e := &r.cache[i]; e.n == n && e.freq == freqStep {
			return e.spec
		}
	}
	var e *refSpectrum
	if len(r.cache) < maxSpectra {
		// Within capacity this revives a dropped entry with its storage.
		r.cache = slices.Grow(r.cache, 1)[:len(r.cache)+1]
		e = &r.cache[len(r.cache)-1]
	} else {
		e = &r.cache[r.next]
		r.next = (r.next + 1) % maxSpectra
	}
	e.n, e.freq = n, freqStep
	e.spec = ensure(e.spec, n)
	r.cref = dsp.ConjRotatedRef(r.cref, r.ref, freqStep)
	spec := e.spec
	for k, v := range r.cref {
		spec[k] = cmplx.Conj(v)
	}
	zero(spec[m:])
	p.forwardScrambled(spec)
	invN := complex(1/float64(n), 0)
	for i := range spec {
		spec[i] = cmplx.Conj(spec[i]) * invN
	}
	return spec
}

// Correlate computes dsp.CorrelateProfile(y, r's waveform, freqStep),
// writing into dst (reused when capacity allows), with y's transforms
// shared when y is the loaded buffer. It chooses between the naive
// sliding kernel and the overlap-save product by the crossover
// thresholds above.
//
// The two kernels agree to rounding error (|Δ| ≲ 1e−12 of the profile
// scale — the reference pre-rotation is shared code, only the summation
// order differs), but not bit-exactly; results are deterministic for
// fixed inputs, kernel choice included, and do not depend on which
// transforms were already cached.
func (b *Blocks) Correlate(dst, y []complex128, r *Reference, freqStep float64) []complex128 {
	if !b.shares(y) {
		b.reset(y)
	}
	m := len(r.ref)
	if m == 0 || len(y) < m {
		return nil
	}
	if m < CrossoverRefLen || len(y)-m+1 < CrossoverMinOutputs {
		r.cref = dsp.ConjRotatedRef(r.cref, r.ref, freqStep)
		return dsp.CorrelateWithRef(dst, y, r.cref)
	}
	return b.correlateFFT(dst, r, freqStep)
}

// correlateFFT is the overlap-save product. The circular correlation of
// one block b against the conjugated reference c is
//
//	IFFT( conj(FFT(conj(c))) ⊙ FFT(b) )[d] = Σ_k c[k]·b[(d+k) mod n],
//
// which equals the linear correlation Σ_k c[k]·y[base+d+k] for
// d ∈ [0, n−M]; blocks therefore advance by step = n−M+1 and each
// contributes step outputs. Both transforms run permutation-free
// (bit-reversed spectra cancel in the pointwise product). It correlates
// the buffer b holds.
func (b *Blocks) correlateFFT(dst []complex128, r *Reference, freqStep float64) []complex128 {
	y := b.y
	m := len(r.ref)
	if m == 0 || len(y) < m {
		return nil
	}
	out := len(y) - m + 1
	n := planSize(m, len(y))
	step := n - m + 1
	if b.m != m || b.n != n {
		b.m, b.n, b.built = m, n, 0
		slots := 1 // an unloaded buffer's transforms serve this call alone
		if b.loaded {
			slots = (out + step - 1) / step
		}
		b.spec = ensure(b.spec, slots*n)
		b.work = ensure(b.work, n)
	}
	p := PlanFor(n)
	spec := r.spectrum(p, freqStep)
	dst = ensure(dst, out)
	for i, base := 0, 0; base < out; i, base = i+1, base+step {
		blk := b.spec[:n]
		if b.loaded {
			blk = b.spec[i*n : (i+1)*n]
		}
		if !b.loaded || i == b.built {
			c := copy(blk, y[base:min(base+n, len(y))])
			zero(blk[c:])
			p.forwardScrambled(blk)
			b.built = i + 1
		}
		p.inverseScrambledProduct(b.work, blk, spec)
		keep := min(step, out-base)
		copy(dst[base:base+keep], b.work[:keep])
	}
	return dst
}

// Scratch is the working storage of the one-shot entry points: a Blocks
// that is never loaded, so each call transforms its buffer afresh, and
// a Reference that every call sets afresh. It grows to the largest
// correlation it has served and is then allocation-free. The zero value
// is ready to use. A Scratch must not be used from multiple goroutines
// at once.
type Scratch struct {
	blocks Blocks
	ref    Reference
}

// Correlate computes dsp.CorrelateProfile(y, ref, freqStep), writing
// into dst (reused when capacity allows): Blocks.Correlate of y against
// ref just set, both transformed afresh in s.
func Correlate(dst, y, ref []complex128, freqStep float64, s *Scratch) []complex128 {
	s.ref.Set(ref)
	return s.blocks.Correlate(dst, y, &s.ref, freqStep)
}

// CorrelateProfileFFT is Correlate always taking the FFT path,
// regardless of the crossover heuristic.
func CorrelateProfileFFT(dst, y, ref []complex128, freqStep float64, s *Scratch) []complex128 {
	s.ref.Set(ref)
	s.blocks.reset(y)
	return s.blocks.correlateFFT(dst, &s.ref, freqStep)
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
