package core

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"zigzag/internal/dsp"
	"zigzag/internal/frame"
	"zigzag/internal/modem"
	"zigzag/internal/obs"
	"zigzag/internal/phy"
)

// ErrNoProgress is reported (inside PacketResult.Err) when the greedy
// scheduler stalls before a packet is fully decoded — the §4.5 failure
// case where the collisions do not combine differently enough.
var ErrNoProgress = errors.New("zigzag: chunk scheduler stalled")

// pktState is the cross-reception state of one distinct packet.
type pktState struct {
	id   int
	meta PacketMeta

	nsym      int // total symbols incl preamble; -1 until known
	totalBits int // frame bits; -1 until known

	// Forward pass.
	decided []complex128 // decisions by symbol index
	chips   []complex128 // decided symbols upsampled (forward)
	soft    []complex128 // forward soft estimates
	weight  []float64    // forward MRC weights (|Ĥ| of the decoding rec)
	fwdUpTo int          // symbols committed forward

	// Backward pass.
	decidedB  []complex128
	chipsB    []complex128
	softB     []complex128
	weightB   []float64
	bwdDownTo int // symbols ≥ bwdDownTo are committed backward

	// shape is the normalized ISI signature of this sender's link,
	// fitted once on a clean stretch and shared across receptions. Its
	// taps live in packet-owned backing that Scratch keeps across
	// decodes.
	shape    dsp.FIR
	hasShape bool

	// eqDonor is the occurrence whose trained equalizer other
	// occurrences of this packet borrow (the ISI is a property of the
	// link, not of one reception).
	eqDonor *occState
}

// occState is the per-(packet, reception) decoding state.
type occState struct {
	p    *pktState
	r    *recState
	sync phy.Sync

	dec  *phy.SymbolDecoder // forward black-box decoder
	mod  *phy.Modeler       // forward re-encoder
	decB *phy.SymbolDecoder
	modB *phy.Modeler

	subChip  int // forward: chips [0, subChip) subtracted from r.res
	subChipB int // backward: chips [subChipB, end) subtracted from r.resB

	// spans log every forward subtraction with the model state that
	// performed it, so refinements measure residuals in the right
	// reference frame (§4.2.4b with correct bookkeeping). spansB is the
	// backward counterpart.
	spans  []subSpan
	spansB []subSpan

	prepared  bool // forward sync refined + equalizer trained
	preparedB bool
}

// subSpan is one recorded subtraction: chips [From, To) removed using
// model state Snap. Refined spans are consumed (removed from the log).
type subSpan struct {
	From, To int
	Snap     phy.ModelState
}

// recState is one reception with its mutable residual buffers.
type recState struct {
	id   int
	raw  []complex128
	res  []complex128 // forward residual
	resB []complex128 // backward residual
	occs []*occState
}

type decoder struct {
	sc   *Scratch
	cfg  Config
	sync *phy.Synchronizer
	pkts []*pktState
	recs []*recState
	sps  int
	pre  int // preamble symbols
	// marginSym keeps decode chunks clear of live interference by the
	// interpolator + equalizer skirt.
	marginSym int
	iters     int
	// bwdRan records that the backward pass ran on this decode:
	// DecodeWith skips it when every forward candidate already passed
	// its checksum, and a skipped pass leaves bwdDownTo at its reset
	// value, which would otherwise read as a finished pass.
	bwdRan bool
	// kway enables the generalized ordering policy (see sic.go): set for
	// decodes over three or more distinct packets.
	kway bool

	// Reusable working storage (kept across decodes on the same
	// Scratch): header demap bits, the span compaction buffer, the
	// dirty-interval cuts, the MRC combination buffer, and the forward
	// bits that decide whether the backward pass runs.
	hdrBits  []byte
	spanKeep []subSpan
	cuts     []interval
	combBuf  []complex128
	pieceA   []interval
	pieceB   []interval
	fwdBits  []byte

	// debugHook, when non-nil, is invoked after each committed chunk
	// (tests and diagnostics only).
	debugHook func(pass string, o *occState, lo, hi int)

	// obs, when non-nil, receives chunk-level events (inherited from the
	// Scratch at newDecoder time); obsRec stamps their reception
	// sequence. Nil on every path that never attached an observer.
	obs    obs.Sink
	obsRec int64
}

// emitChunk publishes one chunk-level decoder event: A=packet, B/C the
// symbol bounds, List=[reception, direction] (0 forward, 1 backward).
// Callers guard on d.obs != nil.
func (d *decoder) emitChunk(kind obs.Kind, o *occState, lo, hi, dir int, f0 float64) {
	ev := obs.Event{Kind: kind, Rec: d.obsRec, A: int64(o.p.id), B: int64(lo), C: int64(hi), F0: f0}
	ev.AppendList(o.r.id)
	ev.AppendList(dir)
	d.obs.Emit(ev)
}

// newDecoder builds a one-shot decoder on a fresh Scratch (tests and
// the scratch-free Decode path).
func newDecoder(cfg Config, metas []PacketMeta, recs []*Reception) (*decoder, error) {
	var sc Scratch
	return sc.newDecoder(cfg, metas, recs)
}

// newDecoder resets the session's decoder onto a new set of receptions,
// reclaiming every pooled object the previous decode handed out.
func (sc *Scratch) newDecoder(cfg Config, metas []PacketMeta, recs []*Reception) (*decoder, error) {
	if len(metas) == 0 || len(recs) == 0 {
		return nil, errors.New("zigzag: nothing to decode")
	}
	sc.occN, sc.modN, sc.decN = 0, 0, 0
	d := &sc.dec
	*d = decoder{
		sc:   sc,
		cfg:  cfg,
		sync: sc.synchronizer(cfg.PHY),
		sps:  cfg.PHY.SamplesPerSymbol,
		pre:  cfg.PHY.PreambleBits,
		pkts: d.pkts[:0],
		recs: d.recs[:0],
		kway: len(metas) > 2,

		hdrBits:  d.hdrBits[:0],
		spanKeep: d.spanKeep[:0],
		cuts:     d.cuts[:0],
		combBuf:  d.combBuf[:0],
		pieceA:   d.pieceA[:0],
		pieceB:   d.pieceB[:0],
		fwdBits:  d.fwdBits[:0],

		obs:    sc.Obs,
		obsRec: sc.ObsRec,
	}
	interpSyms := (cfg.PHY.Interp.Taps + d.sps - 1) / d.sps
	if interpSyms == 0 {
		interpSyms = (dsp.DefaultSincTaps + d.sps - 1) / d.sps
	}
	d.marginSym = cfg.PHY.EqTaps + interpSyms + 1
	for i, m := range metas {
		p := sc.pkt(i)
		p.id, p.meta, p.nsym, p.totalBits = i, m, -1, -1
		if m.BitLen > 0 {
			p.setLength(d, m.BitLen)
		}
		d.pkts = append(d.pkts, p)
	}
	for i, rc := range recs {
		r := sc.rec(i)
		r.id, r.raw = i, rc.Samples
		r.res = dsp.Ensure(r.res, len(rc.Samples))
		copy(r.res, rc.Samples)
		for _, oc := range rc.Packets {
			if oc.Packet < 0 || oc.Packet >= len(d.pkts) {
				return nil, fmt.Errorf("zigzag: occurrence references packet %d of %d", oc.Packet, len(d.pkts))
			}
			s := oc.Sync
			if s.Freq == 0 {
				s.Freq = metas[oc.Packet].Freq
			}
			if d.kway && cmplx.Abs(s.H) == 0 {
				// A zero-power emission contributes no signal and can
				// never be decoded; dropping it at ingest keeps the k-way
				// schedule identical to the same decode without it (the
				// packet reports ErrNoProgress).
				continue
			}
			o := sc.occ()
			o.p, o.r, o.sync = d.pkts[oc.Packet], r, s
			r.occs = append(r.occs, o)
		}
		d.recs = append(d.recs, r)
	}
	// Seed the known preamble symbols: every packet starts with the
	// shared preamble, so symbols [0, pre) are decided a priori. This is
	// what lets chunk 1 of the bootstrap include another packet's
	// preamble region.
	preSyms := sc.preambleSymbols(cfg.PHY)
	for _, p := range d.pkts {
		p.grow(d, d.pre)
		copy(p.decided, preSyms)
		copy(p.decidedB, preSyms)
		p.syncChips(d, 0, d.pre)
		p.syncChipsB(d, 0, d.pre)
		p.fwdUpTo = d.pre
	}
	return d, nil
}

// setLength fixes the packet's symbol count once its frame length is
// known.
func (p *pktState) setLength(d *decoder, bits int) {
	p.totalBits = bits
	p.nsym = d.pre + modem.SymbolCount(p.meta.Scheme, bits)
	p.grow(d, p.nsym)
}

// grow ensures the per-symbol state arrays cover at least n symbols,
// zero-extending each slice in place (allocation-free once a pooled
// packet state has reached steady-state capacity).
func (p *pktState) grow(d *decoder, n int) {
	if n > len(p.decided) {
		p.decided = growZeroC(p.decided, n)
		p.soft = growZeroC(p.soft, n)
		p.weight = growZeroF(p.weight, n)
		p.decidedB = growZeroC(p.decidedB, n)
		p.softB = growZeroC(p.softB, n)
		p.weightB = growZeroF(p.weightB, n)
	}
	if nc := n * d.sps; nc > len(p.chips) {
		p.chips = growZeroC(p.chips, nc)
		p.chipsB = growZeroC(p.chipsB, nc)
	}
}

// syncChips re-renders chips for symbols [from, to) from the forward
// decisions.
func (p *pktState) syncChips(d *decoder, from, to int) {
	for k := from; k < to; k++ {
		for j := 0; j < d.sps; j++ {
			p.chips[k*d.sps+j] = p.decided[k]
		}
	}
}

func (p *pktState) syncChipsB(d *decoder, from, to int) {
	for k := from; k < to; k++ {
		for j := 0; j < d.sps; j++ {
			p.chipsB[k*d.sps+j] = p.decidedB[k]
		}
	}
}

// symUB returns the packet's symbol-count upper bound within reception r:
// the true count when known, otherwise as many symbols as the buffer
// could hold.
func (d *decoder) symUB(o *occState) int {
	if o.p.nsym >= 0 {
		return o.p.nsym
	}
	room := (float64(len(o.r.raw)) - o.sync.Start) / float64(d.sps)
	if room < 0 {
		return 0
	}
	return int(room)
}

// amp2 returns |Ĥ|² for an occurrence.
func amp2(o *occState) float64 {
	a := cmplx.Abs(o.sync.H)
	return a * a
}

// cleanExtentFwd returns the largest symbol index hi such that symbols
// [p.fwdUpTo, hi) of o's packet can be decoded from o's reception once
// all other packets' already-decoded overlap is subtracted. An
// interferer whose power is CaptureSINRdB below the packet's does not
// block (the capture rule of §4.1).
func (d *decoder) cleanExtentFwd(o *occState) int {
	p := o.p
	hi := d.symUB(o)
	if hi <= p.fwdUpTo {
		return p.fwdUpTo
	}
	pPow := amp2(o)
	for _, q := range o.r.occs {
		if q.p == o.p {
			continue
		}
		// The subtractable prefix of q ends at its decoded extent.
		dirtyLo := q.sync.Start + float64(q.p.fwdUpTo*d.sps)
		dirtyHi := q.sync.Start + float64(d.symUB(q)*d.sps)
		if dirtyHi <= dirtyLo {
			continue // fully subtractable
		}
		if amp2(q)*d.cfg.captureRatio() <= pPow {
			continue // capture: q is too weak to block p
		}
		limit := int(math.Floor((dirtyLo-o.sync.Start)/float64(d.sps))) - d.marginSym
		if limit < hi {
			hi = limit
		}
	}
	if hi < p.fwdUpTo {
		return p.fwdUpTo
	}
	return hi
}

// modeler lazily builds the forward re-encoder for an occurrence,
// installing the link's ISI shape when available.
func (d *decoder) modeler(o *occState) *phy.Modeler {
	if o.mod == nil {
		o.mod = d.sc.modeler(d.cfg.PHY, o.sync)
	}
	if o.p.hasShape && !o.mod.ISIFitted() {
		o.mod.SetShape(o.p.shape)
	}
	return o.mod
}

// ensureSubtractedFwd extends q's subtracted prefix in its reception so
// that samples up to uptoSample no longer contain q's decoded signal.
// The subtraction applies the current model; its phase stays accurate
// because refineModelsFwd re-anchors it after each decoded chunk (the
// paper's chunk-1′/chunk-1″ comparison, §4.2.4b).
func (d *decoder) ensureSubtractedFwd(q *occState, uptoSample float64) {
	limitChip := q.p.fwdUpTo * d.sps
	need := int(math.Ceil(uptoSample-q.sync.Start)) + d.marginSym*d.sps
	if need > limitChip {
		need = limitChip
	}
	if need <= q.subChip {
		return
	}
	m := d.modeler(q)
	q.spans = append(q.spans, subSpan{From: q.subChip, To: need, Snap: m.State()})
	m.Subtract(q.r.res, q.p.chips, q.subChip, need)
	q.subChip = need
}

// selfSubtractFwd subtracts o's own freshly committed chips from its
// decoding reception, lagging the commit frontier by the skirt margin so
// the next chunk's equalizer still sees intact neighbours. Once the
// packet is fully decoded the lag is dropped.
func (d *decoder) selfSubtractFwd(o *occState) {
	p := o.p
	need := p.fwdUpTo*d.sps - 2*d.marginSym*d.sps
	if p.nsym >= 0 && p.fwdUpTo >= p.nsym {
		need = p.fwdUpTo * d.sps
	}
	if need <= o.subChip {
		return
	}
	m := d.modeler(o)
	o.spans = append(o.spans, subSpan{From: o.subChip, To: need, Snap: m.State()})
	m.Subtract(o.r.res, p.chips, o.subChip, need)
	o.subChip = need
}

// refineModelsFwd runs the §4.2.4b tracker: over the sample window
// [winLo, winHi) of reception r, re-measure the phase of every
// subtraction span that lies there. The window is first clipped to
// exclude samples still holding anyone's un-subtracted signal — a
// measurement against live interference would inject jitter into the
// frequency estimates (the paper's chunk-1″ is likewise formed only
// after the overlapping chunk was decoded and removed). Each span is
// measured against the model state that performed it and then consumed.
func (d *decoder) refineModelsFwd(r *recState, winLo, winHi float64) {
	win := d.cleanPiece(r, winLo, winHi, func(o *occState) interval {
		return interval{
			o.sync.Start + float64(o.subChip),
			o.sync.Start + float64(d.symUB(o)*d.sps),
		}
	})
	if win.empty() {
		return
	}
	for _, q := range r.occs {
		qFrom := int(math.Ceil(win.Lo - q.sync.Start))
		qTo := int(math.Floor(win.Hi - q.sync.Start))
		d.refineSpans(q, qFrom, qTo, false)
	}
}

// refineSpans measures and consumes q's recorded subtraction spans that
// fall inside chips [from, to).
func (d *decoder) refineSpans(q *occState, from, to int, backward bool) {
	spans := q.spans
	mod := q.mod
	chips := q.p.chips
	if backward {
		spans = q.spansB
		mod = q.modB
		chips = q.p.chipsB
		if q.p.bwdExcluded() {
			chips = q.p.chips
		}
	}
	if mod == nil {
		return
	}
	keep := d.spanKeep[:0]
	for _, sp := range spans {
		lo, hi := sp.From, sp.To
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi-lo < d.cfg.minTrackChips() {
			keep = append(keep, sp)
			continue
		}
		mod.RefineSpan(r_res(q, backward), chips, lo, hi, sp.Snap)
		// Keep the unmeasured remainders of the span.
		if lo-sp.From >= d.cfg.minTrackChips() {
			keep = append(keep, subSpan{From: sp.From, To: lo, Snap: sp.Snap})
		}
		if sp.To-hi >= d.cfg.minTrackChips() {
			keep = append(keep, subSpan{From: hi, To: sp.To, Snap: sp.Snap})
		}
	}
	if backward {
		q.spansB = append(q.spansB[:0], keep...)
	} else {
		q.spans = append(q.spans[:0], keep...)
	}
	d.spanKeep = keep[:0]
}

// r_res selects the residual buffer for a direction.
func r_res(q *occState, backward bool) []complex128 {
	if backward {
		return q.r.resB
	}
	return q.r.res
}

// cleanPiece clips [winLo, winHi) by each occurrence's dirty interval and
// returns the longest remaining piece if it is usefully long, else an
// empty interval.
func (d *decoder) cleanPiece(r *recState, winLo, winHi float64, dirty func(*occState) interval) interval {
	if winHi-winLo < float64(d.cfg.minTrackChips()) {
		return interval{}
	}
	cuts := d.cuts[:0]
	for _, o := range r.occs {
		cuts = append(cuts, dirty(o))
	}
	d.cuts = cuts[:0]
	// subtractAll on the decoder's reusable piece buffers (no per-chunk
	// garbage).
	out, spare := (interval{winLo, winHi}).subtractAllInto(d.pieceA, d.pieceB, cuts)
	d.pieceA, d.pieceB = out[:0], spare[:0]
	var best interval
	for _, p := range out {
		if p.Hi-p.Lo > best.Hi-best.Lo {
			best = p
		}
	}
	if best.Hi-best.Lo < float64(d.cfg.minTrackChips()) {
		return interval{}
	}
	return best
}

// prepare builds the occurrence's black-box decoder. When the packet's
// preamble is still present in this reception's residual, the sync is
// refined against it (the §4.2.4a channel estimation for the sender
// whose preamble was initially buried in interference) and the equalizer
// is trained on it. When the preamble region has already been subtracted
// away (the packet's first decode from this reception happens
// mid-packet), the decoder instead borrows the equalizer trained in
// another reception of the same link and adopts the re-encoding
// tracker's refined frequency estimate.
func (d *decoder) prepare(o *occState) {
	if o.prepared {
		return
	}
	o.prepared = true
	p := o.p
	if o.subChip == 0 {
		if s, ok := d.sync.Measure(o.r.res, int(math.Round(o.sync.Start)), 2, o.sync.Freq); ok {
			// Accept the refinement only if it is consistent with the
			// detection-time estimate; a wildly different Ĥ means the
			// preamble region still holds interference.
			if cmplx.Abs(s.H) > 0.25*cmplx.Abs(o.sync.H) {
				s.Freq = o.sync.Freq
				o.sync = s
			}
		}
		o.dec = d.sc.symbolDecoder(d.cfg.PHY, o.sync, p.meta.Scheme)
		if !d.cfg.PHY.DisableEqualizer {
			if err := o.dec.TrainEqualizer(o.r.res, d.sc.preambleSymbols(d.cfg.PHY), 0); err == nil && p.eqDonor == nil {
				p.eqDonor = o
			}
		}
		return
	}
	s := o.sync
	if o.mod != nil {
		s.Freq = o.mod.Freq()
	}
	o.sync = s
	if p.eqDonor != nil && p.eqDonor.dec != nil {
		o.dec = p.eqDonor.dec.WithSync(s)
		return
	}
	o.dec = d.sc.symbolDecoder(d.cfg.PHY, s, p.meta.Scheme)
}

// tryHeader parses the frame length out of the forward-decoded header
// once enough symbols are committed. The header's check byte rejects a
// corrupt length, which would otherwise poison the packet extent and the
// whole schedule.
func (d *decoder) tryHeader(p *pktState) {
	if p.totalBits > 0 {
		return
	}
	hdrSyms := modem.SymbolCount(p.meta.Scheme, frame.HeaderBits)
	if p.fwdUpTo < d.pre+hdrSyms {
		return
	}
	d.hdrBits = modem.Demodulate(d.hdrBits[:0], p.meta.Scheme, p.decided[d.pre:d.pre+hdrSyms])
	bits := d.hdrBits
	total, err := frame.PeekLength(bits)
	if err != nil {
		return // header unreadable or check failed; length stays unknown
	}
	p.setLength(d, total)
}

// fitShape fits the link's ISI signature from the freshly decoded chunk
// region, which is interference-free by construction (or
// capture-dominant) and not yet subtracted from this reception. The fit
// range is clipped to samples free of other packets' live signal when
// such a stretch is long enough, so a capture decode does not bake the
// weak interferer into the strong sender's taps.
func (d *decoder) fitShape(o *occState, loSym, hiSym int) {
	if o.p.hasShape || d.cfg.PHY.DisableISIModel {
		return
	}
	loChip, hiChip := loSym*d.sps, hiSym*d.sps
	if hiChip-loChip < 2*d.cfg.minTrackChips() {
		return
	}
	winLo := o.sync.Start + float64(loChip)
	winHi := o.sync.Start + float64(hiChip)
	clean := d.cleanPiece(o.r, winLo, winHi, func(q *occState) interval {
		if q.p == o.p {
			return interval{} // own signal must be present
		}
		return interval{
			q.sync.Start + float64(q.subChip),
			q.sync.Start + float64(d.symUB(q)*d.sps),
		}
	})
	if !clean.empty() && clean.Hi-clean.Lo >= 2*float64(d.cfg.minTrackChips()) {
		loChip = int(math.Ceil(clean.Lo - o.sync.Start))
		hiChip = int(math.Floor(clean.Hi - o.sync.Start))
	}
	m := d.modeler(o)
	if err := m.FitISI(o.r.res, o.p.chips, loChip, hiChip); err != nil {
		return
	}
	if shape, ok := m.Shape(o.p.shape.Taps); ok {
		o.p.shape = shape
		o.p.hasShape = true
	}
}

// decodeChunkFwd decodes symbols [lo, hi) of o's packet from its
// reception's residual and commits all but the holdback tail.
func (d *decoder) decodeChunkFwd(o *occState, lo, hi int) {
	p := o.p
	// Clear the chunk's sample span of every other packet's decoded
	// signal (plus skirt).
	endSample := o.sync.Start + float64(hi*d.sps)
	for _, q := range o.r.occs {
		if q.p != p {
			d.ensureSubtractedFwd(q, endSample)
		}
	}
	d.prepare(o)
	commit := hi
	if hi < d.symUB(o) {
		commit = hi - d.cfg.holdback()
		if commit <= lo {
			return
		}
	}
	dec, soft := o.dec.DecodeRange(o.r.res, lo, hi, false)
	p.grow(d, commit)
	w := cmplx.Abs(o.sync.H)
	for k := lo; k < commit; k++ {
		p.decided[k] = dec[k-lo]
		p.soft[k] = soft[k-lo]
		p.weight[k] = w
	}
	p.syncChips(d, lo, commit)
	p.fwdUpTo = commit
	d.tryHeader(p)
	d.fitShape(o, lo, commit)
	if d.debugHook != nil {
		d.debugHook("fwd", o, lo, commit)
	}
	if d.obs != nil {
		d.emitChunk(obs.KindPeel, o, lo, commit, 0, cmplx.Abs(o.sync.H))
	}
	// Remove this chunk from the residual (lagged) and re-measure every
	// overlapping packet model against what remains.
	preSub := o.subChip
	d.selfSubtractFwd(o)
	if o.subChip > preSub {
		winLo := o.sync.Start + float64(preSub)
		winHi := o.sync.Start + float64(o.subChip)
		d.refineModelsFwd(o.r, winLo, winHi)
	}
}

// forceCapture is the stall fallback: the paper's receiver "tries in
// parallel to use standard decoding and ZigZag, and takes whichever
// succeeds" (§4.4). When the greedy schedule makes no progress — e.g.
// because interference inflated the weak sender's detection-time |Ĥ|
// just enough to flip the capture rule — force a chunk of the occurrence
// with the best power margin over its blockers, provided the margin is
// at least 3 dB. A wrong forced decode fails the checksum later; a right
// one restarts the schedule. It reports whether anything was forced.
//
// Under the k-way policy the margin is measured against live blockers
// only (fwdMargin): with three or more packets an interferer that is
// already fully decoded is subtracted exactly before the forced chunk
// runs, so counting it would veto forces that in fact succeed.
func (d *decoder) forceCapture() bool {
	var best *occState
	bestRatio := 2.0 // ≥3 dB margin required
	for _, r := range d.recs {
		for _, o := range r.occs {
			p := o.p
			if p.nsym >= 0 && p.fwdUpTo >= p.nsym {
				continue
			}
			if d.symUB(o)-p.fwdUpTo <= d.cfg.holdback() {
				continue
			}
			var ratio float64
			if d.kway {
				ratio = d.fwdMargin(o)
			} else {
				blocker := 0.0
				for _, q := range r.occs {
					if q.p == p {
						continue
					}
					if a := amp2(q); a > blocker {
						blocker = a
					}
				}
				if blocker == 0 {
					continue
				}
				ratio = amp2(o) / blocker
			}
			if ratio > bestRatio {
				bestRatio, best = ratio, o
			}
		}
	}
	if best == nil {
		return false
	}
	lo := best.p.fwdUpTo
	hi := lo + d.cfg.maxChunk()
	if ub := d.symUB(best); hi > ub {
		hi = ub
	}
	if d.obs != nil {
		d.emitChunk(obs.KindForce, best, lo, hi, 0, bestRatio)
	}
	before := best.p.fwdUpTo
	d.decodeChunkFwd(best, lo, hi)
	return best.p.fwdUpTo > before
}

// runForward executes the paper's greedy schedule (§4.5) until no chunk
// makes progress, decoding the largest available chunk first. Taking the
// biggest chunk each round (instead of any positive sliver) avoids
// committing few-symbol dribbles whose boundary effects degrade the
// decisions; small chunks are taken only when nothing better exists.
// Under the k-way policy, equal-length chunks are ordered by capture/SNR
// margin: the chunk whose packet stands furthest above its live
// interferers decodes first, so the subtraction error injected into the
// shared residual is smallest.
func (d *decoder) runForward() int {
	iters := 0
	for {
		iters++
		var best *occState
		bestLo, bestHi, bestGain := 0, 0, 0
		bestMargin := 0.0
		for _, r := range d.recs {
			for _, o := range r.occs {
				p := o.p
				if p.nsym >= 0 && p.fwdUpTo >= p.nsym {
					continue
				}
				lo := p.fwdUpTo
				hi := d.cleanExtentFwd(o)
				if hi <= lo {
					continue
				}
				if hi-lo > d.cfg.maxChunk() {
					hi = lo + d.cfg.maxChunk()
				}
				gain := hi - lo
				if hi < d.symUB(o) {
					gain -= d.cfg.holdback()
				}
				margin := 0.0
				if d.kway {
					margin = d.fwdMargin(o)
				}
				if gain > bestGain || (d.kway && best != nil && gain == bestGain && margin > bestMargin) {
					best, bestLo, bestHi, bestGain, bestMargin = o, lo, hi, gain, margin
				}
			}
		}
		if best == nil {
			if d.forceCapture() {
				continue
			}
			break
		}
		if d.obs != nil {
			ev := obs.Event{Kind: obs.KindSchedule, Rec: d.obsRec, A: int64(best.p.id), B: int64(bestLo), C: int64(bestHi), F0: bestMargin}
			ev.AppendList(best.r.id)
			ev.AppendList(0)
			ev.AppendList(bestGain)
			d.obs.Emit(ev)
		}
		before := best.p.fwdUpTo
		d.decodeChunkFwd(best, bestLo, bestHi)
		if best.p.fwdUpTo <= before {
			// No commit (pathological sliver): avoid spinning.
			if !d.forceCapture() {
				break
			}
		}
	}
	d.iters += iters
	return iters
}
