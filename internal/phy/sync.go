package phy

import (
	"math/cmplx"

	"zigzag/internal/dsp"
	"zigzag/internal/dsp/fft"
)

// Sync describes one detected packet start within a received buffer: the
// output of the preamble correlator of §4.2.1 plus the channel estimate
// of §4.2.4a.
type Sync struct {
	// Start is the fractional sample index at which the packet's first
	// preamble chip arrives (integer peak position plus the parabolic
	// sub-sample refinement, which absorbs the sampling offset μ).
	Start float64

	// RefPos is the integer sample position used as the phase reference
	// for the rotation model below.
	RefPos int

	// H is the complex channel estimate Ĥ obtained from the correlation
	// peak: Γ'(Δ) / Σ|s[k]|² (§4.2.4a). Its phase is referenced to
	// RefPos.
	H complex128

	// Freq is the carrier frequency offset estimate in radians per
	// sample used during detection (the AP's coarse per-client estimate,
	// §4.2.1/§4.2.4b).
	Freq float64

	// Mag is the raw correlation peak magnitude, kept for diagnostics
	// and threshold experiments.
	Mag float64
}

// Theta returns the carrier phase model at sample position n:
// angle(Ĥ) + Freq·(n − RefPos). Dividing a received sample by
// e^{jTheta(n)}·|Ĥ| yields the transmitted chip estimate.
func (s Sync) Theta(n float64) float64 {
	return cmplx.Phase(s.H) + s.Freq*(n-float64(s.RefPos))
}

// Synchronizer runs preamble detection over received buffers.
//
// Correlation profiles are computed by the internal/dsp/fft engine
// (overlap-save above the crossover length, the naive kernel below).
// The Synchronizer keeps the preamble spectrum for every client CFO it
// has searched with, and the forward transform of the reception it is
// searching, so the per-client searches of one reception transform it
// once (see Load). The working buffers are reused across calls, so
// steady-state detection allocates nothing per buffer. A Synchronizer
// must therefore not be shared by concurrent goroutines; the
// Monte-Carlo harnesses construct one per trial.
type Synchronizer struct {
	cfg     Config
	wave    []complex128  // preamble chip waveform
	energy  float64       // Σ|s[k]|²
	pre     fft.Reference // the preamble, with its spectra per plan size and CFO
	rx      fft.Blocks    // transforms of the reception being searched
	prof    []complex128  // reusable profile buffer (Detect only)
	peakBuf []dsp.Peak    // reusable peak list (Detect only)
	syncBuf []Sync        // reusable sync list (Detect only)
}

// NewSynchronizer builds a synchronizer for the configuration.
func NewSynchronizer(cfg Config) *Synchronizer {
	w := cfg.PreambleWave()
	sy := &Synchronizer{cfg: cfg, wave: w, energy: dsp.Energy(w)}
	sy.pre.Set(w)
	return sy
}

// PreambleEnergy returns Σ|s[k]|² of the reference waveform.
func (sy *Synchronizer) PreambleEnergy() float64 { return sy.energy }

// Load declares rx the reception that the following Detect, DetectFor
// and Profile calls on rx search, so that they share one forward
// transform of it: the first search transforms it and the others
// reuse that. Sharing is tied to this call, never to the slice alone: a
// buffer rewritten in place must be loaded again before it is searched,
// and a search of any buffer that was not loaded transforms that buffer
// for itself and ends the sharing.
func (sy *Synchronizer) Load(rx []complex128) { sy.rx.Load(rx) }

// Detect finds every preamble occurrence in rx for a sender with the
// given coarse frequency offset (radians/sample), using the threshold
// rule of §5.3a with acceptance factor beta (0 means the default 0.65)
// against a coarse amplitude estimate refAmp of that sender (0 means 1).
//
// The returned syncs are sorted by position. A spike in the middle of a
// reception is exactly the paper's collision indicator (Fig 4-2).
//
// The returned slice is the synchronizer's reusable scratch, valid
// until the next Detect/DetectFor on this synchronizer; callers that
// retain syncs across detections copy the values out (Sync is a plain
// value type).
func (sy *Synchronizer) Detect(rx []complex128, freq, beta, refAmp float64) []Sync {
	sy.prof = sy.rx.Correlate(sy.prof, rx, &sy.pre, freq)
	pd := dsp.PeakDetector{Beta: beta, RefAmp: refAmp, MinSpacing: len(sy.wave) / 2}
	sy.peakBuf = pd.FindInto(sy.peakBuf, sy.prof, sy.energy)
	syncs := sy.syncBuf[:0]
	for _, p := range sy.peakBuf {
		syncs = append(syncs, sy.syncFromPeak(p))
	}
	sy.syncBuf = syncs
	return syncs
}

// Profile exposes the raw correlation profile for a given coarse
// frequency offset; the Fig 4-2 experiment plots it directly. The
// returned slice is freshly allocated (unlike Detect's internal buffer)
// and remains valid across further Synchronizer calls.
func (sy *Synchronizer) Profile(rx []complex128, freq float64) []complex128 {
	return sy.rx.Correlate(nil, rx, &sy.pre, freq)
}

// Measure re-estimates the sync at a known approximate position (±slack
// samples) — used when ZigZag refines a packet's channel estimate from
// an interference-free residual (§4.2.4a) or needs Ĥ at a start position
// it already knows from collision matching.
func (sy *Synchronizer) Measure(rx []complex128, approxStart, slack int, freq float64) (Sync, bool) {
	lo := approxStart - slack
	if lo < 0 {
		lo = 0
	}
	hi := approxStart + slack
	if hi > len(rx)-len(sy.wave) {
		hi = len(rx) - len(sy.wave)
	}
	if hi < lo {
		return Sync{}, false
	}
	best := dsp.Peak{Pos: -1}
	for d := lo; d <= hi; d++ {
		v := dsp.CorrelateAt(rx, sy.wave, d, freq)
		if m := cmplx.Abs(v); m > best.Mag {
			best = dsp.Peak{Pos: d, Mag: m, Value: v}
		}
	}
	if best.Pos < 0 {
		return Sync{}, false
	}
	// Parabolic refinement around the best integer position.
	vm := cmplx.Abs(dsp.CorrelateAt(rx, sy.wave, best.Pos-1, freq))
	vp := cmplx.Abs(dsp.CorrelateAt(rx, sy.wave, best.Pos+1, freq))
	den := vm - 2*best.Mag + vp
	if den != 0 {
		frac := 0.5 * (vm - vp) / den
		if frac > 0.5 {
			frac = 0.5
		} else if frac < -0.5 {
			frac = -0.5
		}
		best.Frac = frac
	}
	s := sy.syncFromPeak(best)
	s.Freq = freq
	return s, true
}

func (sy *Synchronizer) syncFromPeak(p dsp.Peak) Sync {
	return Sync{
		Start:  float64(p.Pos) + p.Frac,
		RefPos: p.Pos,
		H:      p.Value / complex(sy.energy, 0),
		Mag:    p.Mag,
	}
}

// DetectFor runs Detect and stamps the syncs with the frequency offset
// used, which downstream decoding needs.
func (sy *Synchronizer) DetectFor(rx []complex128, freq, beta, refAmp float64) []Sync {
	syncs := sy.Detect(rx, freq, beta, refAmp)
	for i := range syncs {
		syncs[i].Freq = freq
	}
	return syncs
}
