package phy

import (
	"math"
	"math/cmplx"

	"zigzag/internal/dsp"
	"zigzag/internal/dsp/kern"
)

// Modeler re-encodes decoded symbols into the image they produced inside
// one particular reception, so ZigZag can subtract that image (§4.2.3b).
// One Modeler exists per (packet, reception) pair and owns:
//
//   - the reception's synchronization for the packet (fractional start,
//     Ĥ, coarse frequency offset);
//   - a sample-spaced FIR fitted by least squares on interference-free
//     stretches, capturing multipath/hardware distortion so the image
//     includes the ISI the real signal suffered (§4.2.4d);
//   - the phase/frequency tracker of §4.2.4b: before each subtraction the
//     image is compared against the residual signal, the phase error δφ
//     is removed, and the frequency estimate is nudged by α·δφ/δt.
//
// The modeler works on the chip (sample) grid: the caller supplies the
// packet's decoded chip waveform (upsampled decided symbols) with
// not-yet-decoded chips left as zero.
type Modeler struct {
	cfg    Config
	sync   Sync
	interp dsp.Interpolator

	// rs is the polyphase grid evaluator: the fractional part of
	// n − sync.Start is the same for every sample of a chunk, so the
	// whole aligned waveform runs on one phase FIR. wave and img are the
	// reusable chunk buffers; with them threaded through BuildImage,
	// steady-state subtraction allocates nothing.
	rs   dsp.Resampler
	wave []complex128
	img  []complex128

	// g is the image filter. Until FitISI succeeds it is the single-tap
	// Ĥ model; afterwards it captures the full distortion. gTaps is the
	// modeler-owned backing for g's taps, reused across fits, SetShape
	// calls and Reinits.
	g      dsp.FIR
	gTaps  []complex128
	isiFit bool
	// gen counts installs of the image filter: Reinit, a successful
	// FitISI and SetShape bump it and nothing resets it, so two images
	// of the same chips under the same state snapshot and generation are
	// bit-identical (see RefineSpanImage).
	gen uint64

	// lsq and yBuf are the FitISI working storage (the least-squares
	// scratch and the derotated residual); with them threaded,
	// steady-state refits allocate nothing.
	lsq  dsp.LSQ
	yBuf []complex128

	// Phase tracker state. The rotation model is anchored at the most
	// recently tracked position: θ(n) = anchorPhase + freq·(n −
	// anchorPos). Anchoring at the latest chunk keeps the loop stable —
	// a frequency nudge then only affects phases *beyond* the anchor,
	// instead of being amplified by the full distance from the packet
	// start.
	freq        float64 // refined rad/sample estimate
	anchorPos   float64
	anchorPhase float64
}

// NewModeler builds a modeler for one packet occurrence in one reception.
func NewModeler(cfg Config, s Sync) *Modeler {
	m := &Modeler{}
	m.Reinit(cfg, s)
	return m
}

// Reinit re-anchors the modeler to a new (configuration, sync) pair,
// resetting every piece of decoding state while keeping the scratch
// buffers (aligned-wave/image chunks, resampler kernel, least-squares
// arenas). A pooled modeler reinitialized this way is observationally
// identical to NewModeler(cfg, s): the buffers it retains are fully
// overwritten before use, which the decode-session bit-identity tests
// pin.
func (m *Modeler) Reinit(cfg Config, s Sync) {
	m.cfg = cfg
	m.sync = s
	m.interp = cfg.Interp
	m.rs.Interp = cfg.Interp
	m.gTaps = append(m.gTaps[:0], s.H)
	m.g = dsp.FIR{Taps: m.gTaps, Center: 0}
	m.isiFit = false
	m.gen++
	m.freq = s.Freq
	m.anchorPos = float64(s.RefPos)
	m.anchorPhase = 0
}

// Sync returns the synchronization the modeler is anchored to.
func (m *Modeler) Sync() Sync { return m.sync }

// Filter returns the current image filter (single-tap Ĥ until FitISI or
// SetShape installs a richer model).
func (m *Modeler) Filter() dsp.FIR { return m.g }

// Shape returns the image filter normalized so its centre tap is 1 — the
// link's ISI signature with the per-reception gain divided out — and
// true if a fitted shape is available. The taps are written into dst's
// backing, reused when its capacity allows, so a caller that keeps one
// shape buffer per link refits without allocating. Because the channel
// is quasi-static (§3, footnote 1), the shape estimated in one reception
// is valid in another reception of the same link.
func (m *Modeler) Shape(dst []complex128) (dsp.FIR, bool) {
	if !m.isiFit {
		return dsp.FIR{}, false
	}
	c := m.g.Taps[m.g.Center]
	if c == 0 {
		return dsp.FIR{}, false
	}
	dst = dst[:0]
	for _, t := range m.g.Taps {
		dst = append(dst, t/c)
	}
	return dsp.FIR{Taps: dst, Center: m.g.Center}, true
}

// SetShape installs a normalized ISI shape (centre tap 1) borrowed from
// another reception of the same link, scaled by this reception's Ĥ, into
// the modeler-owned tap backing. It upgrades the bare-Ĥ model without
// needing a clean stretch in this reception. Honors DisableISIModel.
func (m *Modeler) SetShape(shape dsp.FIR) {
	if m.cfg.DisableISIModel || len(shape.Taps) == 0 {
		return
	}
	m.gTaps = m.gTaps[:0]
	for _, t := range shape.Taps {
		m.gTaps = append(m.gTaps, t*m.sync.H)
	}
	m.g = dsp.FIR{Taps: m.gTaps, Center: shape.Center}
	m.isiFit = true
	m.gen++
}

// Freq returns the current refined frequency-offset estimate.
func (m *Modeler) Freq() float64 { return m.freq }

// ISIFitted reports whether the full FIR model has been fitted.
func (m *Modeler) ISIFitted() bool { return m.isiFit }

// FilterGen returns the image filter's generation: it changes whenever
// Reinit, FitISI or SetShape installs a filter.
func (m *Modeler) FilterGen() uint64 { return m.gen }

// ramp returns the rotation model e^{jθ(n)} exponent at sample n. The
// constant channel phase lives inside the filter taps; ramp carries only
// the frequency-offset rotation and the tracker's corrections.
func (m *Modeler) ramp(n float64) float64 {
	return m.anchorPhase + m.freq*(n-m.anchorPos)
}

// alignedWave evaluates the packet's chip waveform on the reception's
// integer sample grid over [n0, n1): w[n] = chips(n − Start), using
// fractional-delay interpolation. Chips outside the decoded set are zero.
// The returned slice is the modeler's scratch, valid until the next
// aligned-wave evaluation.
func (m *Modeler) alignedWave(chips []complex128, n0, n1 int) []complex128 {
	m.wave = m.rs.EvalGrid(m.wave, chips, float64(n0)-m.sync.Start, n1-n0)
	return m.wave
}

// alignedWaveMasked is alignedWave restricted to chips [chipFrom,
// chipTo): contributions of chips outside the range are excluded. Because
// both the interpolation and the image filter are linear in the chips,
// the per-chunk images built this way tile exactly — subtracting chunk
// after chunk removes each chip's contribution exactly once, with no
// double-counting in the filter skirts.
//
// Masking no longer clones the chips buffer: interpolating the masked
// buffer is identical to interpolating the sub-slice chips[chipFrom:
// chipTo] with the grid origin shifted by chipFrom, since positions
// outside the sub-slice read zero either way. The returned slice is the
// modeler's scratch, valid until the next aligned-wave evaluation.
func (m *Modeler) alignedWaveMasked(chips []complex128, chipFrom, chipTo, n0, n1 int) []complex128 {
	if chipFrom < 0 {
		chipFrom = 0
	}
	if chipTo > len(chips) {
		chipTo = len(chips)
	}
	if chipTo <= chipFrom {
		m.wave = dsp.Ensure(m.wave, n1-n0)
		for i := range m.wave {
			m.wave[i] = 0
		}
		return m.wave
	}
	m.wave = m.rs.EvalGrid(m.wave, chips[chipFrom:chipTo],
		float64(n0)-m.sync.Start-float64(chipFrom), n1-n0)
	return m.wave
}

// chunkSampleRange returns the integer sample range [n0, n1) covered by
// chips [chipFrom, chipTo) plus the filter/interpolator skirt.
func (m *Modeler) chunkSampleRange(chipFrom, chipTo int) (int, int) {
	pad := m.cfg.ModelTaps + m.interp.Taps + dsp.DefaultSincTaps
	n0 := int(math.Floor(m.sync.Start+float64(chipFrom))) - pad
	n1 := int(math.Ceil(m.sync.Start+float64(chipTo))) + pad
	return n0, n1
}

// BuildImage renders the image of exactly the chips [chipFrom, chipTo)
// as received, returning the image samples and the integer sample offset
// at which they sit in the reception buffer. The image extends past the
// chip range by the filter/interpolator skirt (the chunk's energy leaks
// there), but chips outside the range contribute nothing, so per-chunk
// images tile exactly under repeated subtraction.
//
// The returned image is the modeler's reusable scratch: it is valid
// until the next image-building call on this modeler and must not be
// retained across calls.
func (m *Modeler) BuildImage(chips []complex128, chipFrom, chipTo int) ([]complex128, int) {
	n0, n1 := m.chunkSampleRange(chipFrom, chipTo)
	w := m.alignedWaveMasked(chips, chipFrom, chipTo, n0, n1)
	m.img = m.g.Apply(dsp.Ensure(m.img, len(w)), w)
	img := m.img
	// Anchored two-chain ramp kernel: θ(n0+i) = θ(n0) + i·freq, within
	// the kern tolerance of a per-sample cmplx.Exp of the ramp.
	kern.MulTone(img, m.ramp(float64(n0)), m.freq)
	return img, n0
}

// FitISI fits the image filter on an interference-free stretch of the
// residual: chips [chipFrom, chipTo) must already be decoded and the
// corresponding residual samples must contain (only) this packet plus
// noise. It implements the paper's requirement to re-create "as close an
// image of the received version of that chunk as possible", including
// distortion from multipath, hardware and filters (§4.2.4d).
//
// With Config.DisableISIModel set this is a no-op, leaving the bare-Ĥ
// model (the Table 5.1 ablation).
func (m *Modeler) FitISI(residual []complex128, chips []complex128, chipFrom, chipTo int) error {
	if m.cfg.DisableISIModel {
		return nil
	}
	n0, n1 := m.chunkSampleRange(chipFrom, chipTo)
	if n0 < 0 {
		n0 = 0
	}
	if n1 > len(residual) {
		n1 = len(residual)
	}
	// The fit runs only over the interior where the wave has full
	// support. A span too short for that (empty or inverted when the
	// chunk starts past the residual's end) is rejected here, exactly
	// where EstimateFIR would reject it, before anything is evaluated.
	margin := m.cfg.ModelTaps + m.interp.Taps + dsp.DefaultSincTaps
	if n1-n0 < 2*margin+2*m.cfg.ModelTaps+1 {
		return dsp.ErrSingular
	}
	w := m.alignedWave(chips, n0, n1)
	// Derotate the residual by the ramp so the fit is time-invariant.
	m.yBuf = dsp.Ensure(m.yBuf, n1-n0)
	y := m.yBuf
	// The ramp is linear in n, so a per-sample cmplx.Exp collapses to
	// one anchored tone multiply over the copied span.
	copy(y, residual[n0:n1])
	kern.MulTone(y, -m.ramp(float64(n0)), -m.freq)
	g, err := m.lsq.EstimateFIR(w, y, margin, len(y)-margin, m.cfg.ModelTaps)
	if err != nil {
		return err
	}
	// g's taps are the least-squares scratch; copy them into the
	// modeler-owned backing before the next fit reuses the arena.
	m.gTaps = append(m.gTaps[:0], g.Taps...)
	m.g = dsp.FIR{Taps: m.gTaps, Center: g.Center}
	m.isiFit = true
	m.gen++
	return nil
}

// ModelState is a snapshot of the rotation model: the exact phase/
// frequency a subtraction was performed with. Refinements measure the
// residual *against the snapshot that created it* — measuring against a
// newer model state mixes reference frames and destabilizes the
// frequency estimate.
type ModelState struct {
	AnchorPos   float64
	AnchorPhase float64
	Freq        float64
}

// State captures the current rotation model.
func (m *Modeler) State() ModelState {
	return ModelState{AnchorPos: m.anchorPos, AnchorPhase: m.anchorPhase, Freq: m.freq}
}

// rampWith evaluates a snapshot's rotation model at sample n.
func rampWith(s ModelState, n float64) float64 {
	return s.AnchorPhase + s.Freq*(n-s.AnchorPos)
}

// RefineSpan implements the paper's chunk-1′ vs chunk-1″ phase tracker
// (§4.2.4b) with correct bookkeeping. chips [chipFrom, chipTo) of this
// packet were previously subtracted from the residual using the model
// state snap; now that every other packet overlapping the span has also
// been decoded and subtracted, the remaining residual there consists of
// subtraction errors plus noise. Correlating it against the snapshot's
// image coherently isolates this packet's model error at subtraction
// time:
//
//	residual ≈ img_snap·(e^{jδφ}−1) + (other packets' errors) + noise
//
// The measured δφ (a) repairs the residual over the span, and (b)
// updates the live model: the phase re-anchors at the span centre, and
// the frequency becomes snap.Freq + α·δφ/(pos − snap.AnchorPos) — the
// α·δφ/δt rule evaluated in the snapshot's own reference frame, which is
// what keeps the estimate stable no matter how stale the subtraction
// was. It returns the measured δφ (0 when the measurement was rejected
// or tracking is disabled).
func (m *Modeler) RefineSpan(residual []complex128, chips []complex128, chipFrom, chipTo int, snap ModelState) float64 {
	if m.cfg.DisablePhaseTracking {
		return 0
	}
	img, n0 := m.buildImageWith(snap, chips, chipFrom, chipTo)
	return m.RefineSpanImage(residual, img, n0, chipFrom, chipTo, snap)
}

// RefineSpanImage is RefineSpan measuring and correcting with the
// span's image given instead of rebuilt: img, at sample n0, must be the
// image of chips [chipFrom, chipTo) under snap and the current filter —
// what Subtract returned for the span, if FilterGen has not changed
// since. The image is a pure function of those chips, the snapshot, the
// filter taps, the sync and the interpolator, so the result is
// bit-identical to RefineSpan's. img is scaled in place.
func (m *Modeler) RefineSpanImage(residual, img []complex128, n0, chipFrom, chipTo int, snap ModelState) float64 {
	if m.cfg.DisablePhaseTracking {
		return 0
	}
	margin := m.cfg.ModelTaps + m.interp.Taps + dsp.DefaultSincTaps
	lo, hi := margin, len(img)-margin
	var num, den complex128
	for i := lo; i < hi; i++ {
		n := n0 + i
		if n < 0 || n >= len(residual) {
			continue
		}
		num += residual[n] * cmplx.Conj(img[i])
		den += img[i] * cmplx.Conj(img[i])
	}
	if real(den) <= 0 {
		return 0
	}
	c := num / den // ≈ e^{jδφ}·g − 1 for small model error
	if cmplx.Abs(c) > 0.7 {
		return 0 // residual still holds interference; unusable
	}
	lambda := 1 + c
	dphi := cmplx.Phase(lambda)
	pos := m.sync.Start + float64(chipFrom+chipTo)/2
	// Update the live model in the snapshot's reference frame.
	m.anchorPhase = dsp.WrapPhase(rampWith(snap, pos) + dphi)
	m.anchorPos = pos
	dt := pos - snap.AnchorPos
	if dt != 0 {
		df := m.cfg.TrackAlpha * dphi / dt
		const dfCap = 2e-3
		if df > dfCap {
			df = dfCap
		} else if df < -dfCap {
			df = -dfCap
		}
		m.freq = snap.Freq + df
	}
	// Correct the residual: the true image was img·λ, we subtracted img.
	delta := lambda - 1
	for i := range img {
		img[i] *= delta
	}
	dsp.SubAt(residual, n0, img)
	return dphi
}

// buildImageWith is BuildImage under a model-state snapshot.
func (m *Modeler) buildImageWith(s ModelState, chips []complex128, chipFrom, chipTo int) ([]complex128, int) {
	saved := m.State()
	m.anchorPos, m.anchorPhase, m.freq = s.AnchorPos, s.AnchorPhase, s.Freq
	img, n0 := m.BuildImage(chips, chipFrom, chipTo)
	m.anchorPos, m.anchorPhase, m.freq = saved.AnchorPos, saved.AnchorPhase, saved.Freq
	return img, n0
}

// Subtract builds the chunk image under the current model state and
// subtracts it. The joint decoder subtracts every chunk this way and
// later measures each span's model error against the image it
// subtracted (RefineSpan, RefineSpanImage). It returns the image and its
// sample offset, as BuildImage does: the modeler's scratch, which a
// caller keeping it for RefineSpanImage copies out.
func (m *Modeler) Subtract(residual []complex128, chips []complex128, chipFrom, chipTo int) ([]complex128, int) {
	img, n0 := m.BuildImage(chips, chipFrom, chipTo)
	dsp.SubAt(residual, n0, img)
	return img, n0
}
