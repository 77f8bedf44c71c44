// Package kern is the flat-slice, structure-of-arrays DSP kernel layer
// the impairment engine's hot loops run on. Where the rest of the dsp
// package works on []complex128 with math/cmplx calls, the kernels here
// keep real and imaginary parts in separate contiguous float64 planes
// and keep the interior loops branch-free, which is the shape the Go
// compiler optimizes best (bounds checks eliminated, independent
// multiply-add chains the CPU can overlap) and the shape a future
// hand-vectorized (AVX2/NEON) or float32-lane backend slots into
// without touching callers.
//
// # Layout rules
//
// A "plane pair" is two equal-length float64 slices (re, im) holding
// one complex sequence. Oscillator banks are three parallel slices
// (amp, phase, step), one entry per sinusoid. Kernels never allocate:
// callers own the planes and pass them in, fully overwritten or
// explicitly accumulated into as documented per kernel.
//
// # Recurrence renormalization cadence
//
// Oscillators and rotators advance by 2-term recurrences (the Chebyshev
// cosine recurrence c_n = 2cos(ω)·c_{n−1} − c_{n−2}, and the complex
// phasor product), which accumulate rounding error quadratically in the
// step count. Instead of the periodic magnitude renormalization the
// dsp.Rotator recurrence uses, every kernel re-anchors exactly — a fresh
// math.Sincos evaluation — at the start of every AnchorBlock-sample
// block, bounding the drift of a block to ≲ AnchorBlock²·ε ≈ 3e-11,
// comfortably inside the package's documented 1e-9 tolerance.
//
// # Bit-identity vs tolerance
//
// Kernels that only reorder control flow (ClipQuant's clamp/round, the
// Markov on/off scan feeding AddTone) reproduce their scalar references
// bit for bit. Kernels that reassociate sums or replace a phasor
// product chain with anchored recurrences (Accum, RotateQuad, AddTone's
// tone samples) agree with the references to ≤1e-9 of the signal scale;
// the fuzz suite in this package pins both classes. The per-sample
// scalar path each consumer ran before its kernel is a test oracle in
// the consumer's own package (dsp, impair, phy), held to the same
// contract.
//
// # Kernel forms
//
// The build alone picks a kernel's form: SSE2 assembly under
// amd64 && !purego, the Go form everywhere else. There is no runtime
// switch between them.
package kern

import "math"

// AnchorBlock is the exact re-anchoring cadence of every recurrence
// kernel: each block of this many samples starts from fresh
// math.Sincos evaluations of the closed-form phase.
const AnchorBlock = 512

// smallAngle is the |δ| threshold below which sincosSmall uses its
// polynomial: at 1/32 rad the truncation error of the degree-7/6
// minimax-free Taylor forms is ≈2e-17, below one ulp of a unit-scale
// result. Phase-noise walk increments sit far below this in every
// configured profile; larger draws fall back to math.Sincos.
const smallAngle = 1.0 / 32

// SincosSmall returns (sin δ, cos δ) using the short Taylor evaluation
// for |δ| ≤ 1/32 and math.Sincos otherwise — the increment kernel for
// phasor recurrences whose steps are usually tiny (phase-noise walks,
// PLL corrections). Exported for the decoder's tracking loop; accuracy
// is within one ulp of math.Sincos on the polynomial branch.
func SincosSmall(d float64) (sin, cos float64) { return sincosSmall(d) }

// sincosSmall returns (sin δ, cos δ) using a short Taylor evaluation
// for small |δ| and math.Sincos otherwise.
func sincosSmall(d float64) (sin, cos float64) {
	if d < -smallAngle || d > smallAngle {
		return math.Sincos(d)
	}
	d2 := d * d
	sin = d * (1 - d2/6*(1-d2/20*(1-d2/42)))
	cos = 1 - d2/2*(1-d2/12*(1-d2/30))
	return sin, cos
}
