package dsp

import (
	"cmp"
	"math"
	"math/cmplx"
	"slices"
)

// CorrelateProfile slides the known reference waveform ref across y and
// returns the raw correlation Γ(Δ) = Σ_k conj(ref[k])·y[Δ+k] for every
// alignment Δ in [0, len(y)−len(ref)]. This is the paper's collision
// detector kernel (§4.2.1, Fig 4-2): the profile spikes where ref aligns
// with the start of a packet carrying that preamble.
//
// freqStep compensates a known carrier frequency offset of the sender
// whose preamble is being searched for: the reference is pre-rotated by
// e^{+j·freqStep·k} so the conjugate multiplication cancels the rotation
// the channel applied (the paper's Γ'(Δ)). Pass 0 when no compensation is
// needed.
func CorrelateProfile(y, ref []complex128, freqStep float64) []complex128 {
	if len(ref) == 0 || len(y) < len(ref) {
		return nil
	}
	return CorrelateWithRef(nil, y, ConjRotatedRef(nil, ref, freqStep))
}

// ConjRotatedRef returns dst[k] = conj(ref[k]) · e^{−j·freqStep·k}: the
// conjugated, frequency-compensated reference block the sliding
// correlator multiplies against received samples. The incremental
// rotator is renormalized every 1024 samples (matching Rotate) so long
// references do not drift in amplitude. The construction is shared by
// the naive kernel and the FFT overlap-save engine so the two paths see
// bit-identical references and agree to rounding error.
//
// dst is reused when its capacity allows, otherwise a new slice is
// allocated.
func ConjRotatedRef(dst, ref []complex128, freqStep float64) []complex128 {
	dst = ensure(dst, len(ref))
	if freqStep == 0 {
		for k, v := range ref {
			dst[k] = cmplx.Conj(v)
		}
		return dst
	}
	rot := NewRotator(0, -freqStep) // conj of +freqStep rotation
	for k, v := range ref {
		dst[k] = cmplx.Conj(v) * rot.Next()
	}
	return dst
}

// CorrelateWithRef computes the sliding correlation of y against a
// reference that has already been conjugated (and, if needed,
// pre-rotated) by ConjRotatedRef: dst[d] = Σ_k cref[k]·y[d+k]. dst is
// reused when its capacity allows. This is the naive O(N·M) kernel; see
// internal/dsp/fft for the overlap-save engine used above the crossover
// length.
func CorrelateWithRef(dst, y, cref []complex128) []complex128 {
	if len(cref) == 0 || len(y) < len(cref) {
		return nil
	}
	dst = ensure(dst, len(y)-len(cref)+1)
	for d := range dst {
		var acc complex128
		win := y[d : d+len(cref)]
		for k, c := range cref {
			acc += c * win[k]
		}
		dst[d] = acc
	}
	return dst
}

// CorrelateAt computes the correlation Γ(Δ) at a single alignment with
// frequency compensation, without building the whole profile. It applies
// the same periodic rotator renormalization as CorrelateProfile, so the
// two agree at every alignment even for references much longer than the
// renormalization period.
func CorrelateAt(y, ref []complex128, delta int, freqStep float64) complex128 {
	if delta < 0 || delta+len(ref) > len(y) {
		return 0
	}
	var acc complex128
	rot := NewRotator(0, -freqStep)
	for k, v := range ref {
		acc += cmplx.Conj(v) * rot.Next() * y[delta+k]
	}
	return acc
}

// NormalizedCorrelation returns |Σ a·conj(b)| / √(E_a·E_b) ∈ [0, 1]: the
// cosine similarity between two complex segments. ZigZag uses it to match
// a fresh collision against stored collisions — aligning the two segments
// where the second packets start and checking whether the samples are
// highly dependent (§4.2.2).
func NormalizedCorrelation(a, b []complex128) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	var acc complex128
	var ea, eb float64
	for i := 0; i < n; i++ {
		acc += a[i] * cmplx.Conj(b[i])
		ea += real(a[i])*real(a[i]) + imag(a[i])*imag(a[i])
		eb += real(b[i])*real(b[i]) + imag(b[i])*imag(b[i])
	}
	den := math.Sqrt(ea * eb)
	if den == 0 {
		return 0
	}
	return cmplx.Abs(acc) / den
}

// Peak is one detected correlation spike.
type Peak struct {
	// Pos is the integer sample alignment of the spike.
	Pos int
	// Frac is the sub-sample refinement of the true peak position,
	// obtained by parabolic interpolation of the magnitude profile;
	// the refined position is Pos+Frac with Frac ∈ (−0.5, 0.5).
	Frac float64
	// Mag is the correlation magnitude |Γ| at Pos.
	Mag float64
	// Value is the complex correlation at Pos; its phase carries the
	// channel phase estimate (§4.2.4a).
	Value complex128
}

// PeakDetector finds preamble-correlation spikes in a profile.
//
// The threshold follows §5.3a: a spike is accepted when
//
//	|Γ(Δ)| > Beta · RefAmp · RefEnergy
//
// where RefEnergy is the energy of the reference waveform (Σ|s[k]|², the
// paper's L for a unit-power preamble) and RefAmp is a coarse estimate of
// the colliding sender's channel amplitude |H| (obtained from any prior
// interference-free packet, per the paper). Beta trades false positives
// against false negatives; the paper settles on 0.65.
type PeakDetector struct {
	Beta       float64 // acceptance factor; 0 means DefaultBeta
	RefAmp     float64 // coarse |H| of the sought sender; 0 means 1
	MinSpacing int     // minimum samples between reported peaks; 0 means len(ref)/2 semantics supplied by caller
}

// DefaultBeta is the correlation acceptance factor used throughout the
// evaluation (§5.3a chooses 0.65 as the balance point).
const DefaultBeta = 0.65

// Threshold returns the absolute acceptance level for a reference of
// energy refEnergy.
func (pd PeakDetector) Threshold(refEnergy float64) float64 {
	beta := pd.Beta
	if beta == 0 {
		beta = DefaultBeta
	}
	amp := pd.RefAmp
	if amp == 0 {
		amp = 1
	}
	return beta * amp * refEnergy
}

// Find returns all local maxima of |profile| that exceed the threshold,
// sorted by position, at least MinSpacing apart (keeping the larger
// magnitude when two candidates are closer). It is FindInto with a
// fresh backing slice.
func (pd PeakDetector) Find(profile []complex128, refEnergy float64) []Peak {
	return pd.FindInto(nil, profile, refEnergy)
}

// FindInto is Find appending into a caller-owned buffer (nil is
// allowed): dst is truncated, filled, and the possibly reallocated
// result returned, so steady-state detection loops (the online
// receiver's per-reception, per-client scans) allocate nothing.
//
// Suppression is greedy by magnitude: the strongest candidate always
// survives, and each further candidate survives only if it is at least
// MinSpacing from every already-kept peak. An earlier version resolved
// spacing conflicts against the immediately preceding survivor only, so
// a chain of close-by candidates with rising magnitudes displaced one
// another in place and legitimately spaced earlier peaks were lost.
func (pd PeakDetector) FindInto(dst []Peak, profile []complex128, refEnergy float64) []Peak {
	thr := pd.Threshold(refEnergy)
	minSp := pd.MinSpacing
	if minSp <= 0 {
		minSp = 1
	}
	// Most of a profile lies far below the threshold. A squared
	// magnitude under thr²·(1−1e−9) proves |Γ| ≤ thr despite the
	// rounding of both the square and the hypot, so those samples skip
	// cmplx.Abs. The bound applies only where thr² is a finite normal
	// number, where that rounding is relative.
	var sqSkip float64
	if t2 := thr * thr * (1 - 1e-9); thr > 0 && t2 >= 0x1p-1022 && !math.IsInf(t2, 1) {
		sqSkip = t2
	}
	cands := dst[:0]
	for i, v := range profile {
		if real(v)*real(v)+imag(v)*imag(v) < sqSkip {
			continue
		}
		m := cmplx.Abs(v)
		if m <= thr {
			continue
		}
		if i > 0 && cmplx.Abs(profile[i-1]) > m {
			continue
		}
		if i < len(profile)-1 && cmplx.Abs(profile[i+1]) >= m {
			continue
		}
		cands = append(cands, Peak{Pos: i, Mag: m, Value: profile[i], Frac: parabolicPeak(profile, i)})
	}
	if len(cands) <= 1 {
		return cands
	}
	slices.SortFunc(cands, func(a, b Peak) int {
		if a.Mag != b.Mag {
			return cmp.Compare(b.Mag, a.Mag) // descending magnitude
		}
		return cmp.Compare(a.Pos, b.Pos)
	})
	// Compact survivors into the prefix: candidate i survives iff it is
	// MinSpacing away from every stronger survivor already kept.
	w := 0
	for _, c := range cands {
		ok := true
		for _, k := range cands[:w] {
			d := c.Pos - k.Pos
			if d < 0 {
				d = -d
			}
			if d < minSp {
				ok = false
				break
			}
		}
		if ok {
			cands[w] = c
			w++
		}
	}
	keep := cands[:w]
	slices.SortFunc(keep, func(a, b Peak) int { return cmp.Compare(a.Pos, b.Pos) })
	return keep
}

// parabolicPeak refines a local maximum of |profile| at index i by fitting
// a parabola through the three magnitudes around it. The returned offset
// is clamped to (−0.5, 0.5) and is used as the sub-sample sampling-offset
// estimate μ for the detected packet.
func parabolicPeak(profile []complex128, i int) float64 {
	if i <= 0 || i >= len(profile)-1 {
		return 0
	}
	ym := cmplx.Abs(profile[i-1])
	y0 := cmplx.Abs(profile[i])
	yp := cmplx.Abs(profile[i+1])
	den := ym - 2*y0 + yp
	if den == 0 {
		return 0
	}
	d := 0.5 * (ym - yp) / den
	if d > 0.5 {
		d = 0.5
	} else if d < -0.5 {
		d = -0.5
	}
	return d
}
