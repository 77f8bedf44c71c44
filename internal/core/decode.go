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

// dir is a decode pass's direction. It indexes the per-pass state: the
// forward pass decodes from the preambles toward the packet tails, the
// backward pass (§4.3b, backward.go) the same way from the tails.
type dir int

const (
	fwd dir = iota
	bwd
)

// pktState is the cross-reception state of one distinct packet.
type pktState struct {
	id   int
	meta PacketMeta

	nsym      int // total symbols incl preamble; -1 until known
	totalBits int // frame bits; -1 until known

	// Per pass: decisions by symbol index, the decided symbols upsampled
	// to chips, soft estimates and MRC weights (|Ĥ| of the decoding
	// reception).
	decided [2][]complex128
	chips   [2][]complex128
	soft    [2][]complex128
	weight  [2][]float64
	// front is each pass's frontier: symbols [0, front[fwd]) are
	// committed forward, symbols [front[bwd], nsym) backward.
	front [2]int

	// fwdBits are the forward bits once fwdDemod is set (forwardBits).
	fwdBits  []byte
	fwdDemod bool

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

	// Per pass: the black-box decoder, built when the pass first decodes
	// a chunk here, and the re-encoder.
	dec [2]*phy.SymbolDecoder
	mod [2]*phy.Modeler

	// sub is each pass's subtracted extent: forward, chips [0, sub[fwd])
	// are subtracted from r.res[fwd]; backward, chips [sub[bwd], end)
	// from r.res[bwd].
	sub [2]int

	// spans log every subtraction of each pass with the model state that
	// performed it, so refinements measure residuals in the right
	// reference frame (§4.2.4b with correct bookkeeping).
	spans [2][]subSpan
}

// subSpan is one recorded subtraction: chips [From, To) removed using
// model state Snap. Refined spans are consumed (removed from the log).
// The image the subtraction removed sits at sample N0 of the reception
// and in the decoder's image arena at [ImgLo, ImgHi), with Gen the
// modeler's filter generation at the time; the range is empty for the
// remainder a partial refinement keeps.
type subSpan struct {
	From, To     int
	Snap         phy.ModelState
	Gen          uint64
	N0           int
	ImgLo, ImgHi int
}

// recState is one reception with its mutable residual buffers, one per
// pass.
type recState struct {
	id   int
	raw  []complex128
	res  [2][]complex128
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
	// its checksum, and a skipped pass leaves front[bwd] at its reset
	// value, which would otherwise read as a finished pass.
	bwdRan bool
	// kway enables the generalized ordering policy (see margin): set for
	// decodes over three or more distinct packets.
	kway bool

	// Reusable working storage (kept across decodes on the same
	// Scratch): header demap bits, the span compaction buffer, the
	// dirty-interval cuts, the MRC combination buffer, the frontiers the
	// backward plan saves, and the arena holding each subtraction span's
	// image.
	hdrBits  []byte
	spanKeep []subSpan
	cuts     []interval
	combBuf  []complex128
	pieceA   []interval
	pieceB   []interval
	downTo   []int
	imgs     []complex128

	// debugHook, when non-nil, is invoked after each committed chunk
	// (tests and diagnostics only).
	debugHook func(pass string, o *occState, lo, hi int)

	// obs, when non-nil, receives chunk-level events (inherited from the
	// Scratch at newDecoder time); obsRec stamps their reception
	// sequence. Nil on every path that never attached an observer.
	obs    obs.Sink
	obsRec int64
}

// chunkEvent builds one chunk-level decoder event: A=packet, B/C the
// symbol bounds, List=[reception, direction] (0 forward, 1 backward).
// Callers guard on d.obs != nil.
func (d *decoder) chunkEvent(kind obs.Kind, o *occState, lo, hi int, dn dir, f0 float64) obs.Event {
	ev := obs.Event{Kind: kind, Rec: d.obsRec, A: int64(o.p.id), B: int64(lo), C: int64(hi), F0: f0}
	ev.AppendList(o.r.id)
	ev.AppendList(int(dn))
	return ev
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
		downTo:   d.downTo[:0],
		imgs:     d.imgs[:0],

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
		r.res[fwd] = dsp.Ensure(r.res[fwd], len(rc.Samples))
		copy(r.res[fwd], rc.Samples)
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
		for _, dn := range []dir{fwd, bwd} {
			copy(p.decided[dn], preSyms)
			p.syncChips(d, dn, 0, d.pre)
		}
		p.front[fwd] = d.pre
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
	for dn := range p.decided {
		if n > len(p.decided[dn]) {
			p.decided[dn] = growZeroC(p.decided[dn], n)
			p.soft[dn] = growZeroC(p.soft[dn], n)
			p.weight[dn] = growZeroF(p.weight[dn], n)
		}
		if nc := n * d.sps; nc > len(p.chips[dn]) {
			p.chips[dn] = growZeroC(p.chips[dn], nc)
		}
	}
}

// syncChips re-renders pass dn's chips for symbols [from, to) from its
// decisions.
func (p *pktState) syncChips(d *decoder, dn dir, from, to int) {
	for k := from; k < to; k++ {
		for j := 0; j < d.sps; j++ {
			p.chips[dn][k*d.sps+j] = p.decided[dn][k]
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

// finished reports whether pass dn has decoded p end to end: forward to
// its tail, backward down to its preamble. A packet whose length was
// never learned finishes neither.
func (d *decoder) finished(dn dir, p *pktState) bool {
	if p.nsym < 0 {
		return false
	}
	if dn == fwd {
		return p.front[fwd] >= p.nsym
	}
	return p.front[bwd] <= d.pre
}

// runnable reports whether pass dn still has symbols of p to decode.
func (d *decoder) runnable(dn dir, p *pktState) bool {
	return !d.finished(dn, p) && (dn == fwd || !p.bwdExcluded())
}

// cleanExtentFwd returns the largest symbol index hi such that symbols
// [p.front[fwd], hi) of o's packet can be decoded from o's reception
// once all other packets' already-decoded overlap is subtracted. An
// interferer whose power is captureSINRdB below the packet's does not
// block (the capture rule of §4.1).
func (d *decoder) cleanExtentFwd(o *occState) int {
	p := o.p
	hi := d.symUB(o)
	if hi <= p.front[fwd] {
		return p.front[fwd]
	}
	pPow := amp2(o)
	for _, q := range o.r.occs {
		if q.p == o.p {
			continue
		}
		// The subtractable prefix of q ends at its decoded extent.
		dirtyLo := q.sync.Start + float64(q.p.front[fwd]*d.sps)
		dirtyHi := q.sync.Start + float64(d.symUB(q)*d.sps)
		if dirtyHi <= dirtyLo {
			continue // fully subtractable
		}
		if amp2(q)*captureRatio <= pPow {
			continue // capture: q is too weak to block p
		}
		limit := int(math.Floor((dirtyLo-o.sync.Start)/float64(d.sps))) - d.marginSym
		if limit < hi {
			hi = limit
		}
	}
	if hi < p.front[fwd] {
		return p.front[fwd]
	}
	return hi
}

// trackedSync returns o's sync with the frequency estimate its forward
// re-encoder's tracker has refined, when there is one.
func (o *occState) trackedSync() phy.Sync {
	s := o.sync
	if m := o.mod[fwd]; m != nil {
		s.Freq = m.Freq()
	}
	return s
}

// modeler lazily builds o's re-encoder for pass dn on the tracked sync,
// and installs the link's ISI shape when one exists and the model has
// none. The shape is final before the backward pass starts, so a
// backward re-encoder gets it when it is built.
func (d *decoder) modeler(dn dir, o *occState) *phy.Modeler {
	m := o.mod[dn]
	if m == nil {
		m = d.sc.modeler(d.cfg.PHY, o.trackedSync())
		o.mod[dn] = m
	}
	if o.p.hasShape && !m.ISIFitted() {
		m.SetShape(o.p.shape)
	}
	return m
}

// subLimit returns how far pass dn may subtract q's signal, in chips:
// forward up to its frontier, backward down to bwdSubFromChip.
func (d *decoder) subLimit(dn dir, q *occState) int {
	if dn == fwd {
		return q.p.front[fwd] * d.sps
	}
	return d.bwdSubFromChip(q)
}

// ensureSubtracted extends q's subtracted extent in pass dn's residual
// past sample edge, plus the skirt margin, as far as q is decoded in
// that direction. The subtraction applies the current model; its phase
// stays accurate because refineModels re-anchors it after each decoded
// chunk (the paper's chunk-1′/chunk-1″ comparison, §4.2.4b).
func (d *decoder) ensureSubtracted(dn dir, q *occState, edge float64) {
	guard, limit := d.marginSym*d.sps, d.subLimit(dn, q)
	if dn == fwd {
		d.subtractTo(fwd, q, min(int(math.Ceil(edge-q.sync.Start))+guard, limit))
	} else {
		d.subtractTo(bwd, q, max(int(math.Floor(edge-q.sync.Start))-guard, limit))
	}
}

// selfSubtract subtracts o's own freshly committed chips from its
// decoding reception, lagging the frontier by the skirt margin so the
// next chunk's equalizer still sees intact neighbours. Once the pass has
// decoded the packet end to end the lag is dropped.
func (d *decoder) selfSubtract(dn dir, o *occState) {
	lag := 2 * d.marginSym * d.sps
	need := o.p.front[fwd]*d.sps - lag
	if dn == bwd {
		need = o.p.front[bwd]*d.sps + lag
	}
	if d.finished(dn, o.p) {
		need = d.subLimit(dn, o)
	}
	d.subtractTo(dn, o, need)
}

// subtractTo extends q's subtracted extent in pass dn's residual to chip
// need — forward chips [sub, need), backward [need, sub) — with q's
// current model, logging the span for the tracker.
func (d *decoder) subtractTo(dn dir, q *occState, need int) {
	from, to := q.sub[dn], need
	if dn == bwd {
		from, to = need, q.sub[dn]
	}
	if to <= from {
		return
	}
	q.spans[dn] = append(q.spans[dn], d.subtract(d.modeler(dn, q), q.r.res[dn], q.p.passChips(dn), from, to))
	q.sub[dn] = need
}

// subtract removes the image of chips [from, to) from res with m's
// current model and returns the span that logs it, its image copied
// into the decoder's arena so that refining the whole span later
// measures against it instead of building it again.
func (d *decoder) subtract(m *phy.Modeler, res, chips []complex128, from, to int) subSpan {
	sp := subSpan{From: from, To: to, Snap: m.State(), Gen: m.FilterGen(), ImgLo: len(d.imgs)}
	img, n0 := m.Subtract(res, chips, from, to)
	d.imgs = append(d.imgs, img...)
	sp.N0, sp.ImgHi = n0, len(d.imgs)
	return sp
}

// unsubtracted returns the samples where pass dn's residual still holds
// o's signal: forward from its subtracted prefix to its end, backward
// from its start to its subtracted suffix.
func (d *decoder) unsubtracted(dn dir, o *occState) interval {
	if dn == bwd {
		return interval{o.sync.Start, o.sync.Start + float64(o.sub[bwd])}
	}
	return interval{o.sync.Start + float64(o.sub[fwd]), o.sync.Start + float64(d.symUB(o)*d.sps)}
}

// refineModels runs the §4.2.4b tracker in pass dn: over the sample
// window [winLo, winHi) of reception r, re-measure the phase of every
// subtraction span that lies there. The window is first clipped to
// exclude samples still holding anyone's un-subtracted signal — a
// measurement against live interference would inject jitter into the
// frequency estimates (the paper's chunk-1″ is likewise formed only
// after the overlapping chunk was decoded and removed). Each span is
// measured against the model state that performed it and then consumed.
func (d *decoder) refineModels(dn dir, r *recState, winLo, winHi float64) {
	win := d.cleanPiece(r, winLo, winHi, dn, nil)
	if win.empty() {
		return
	}
	for _, q := range r.occs {
		qFrom := int(math.Ceil(win.Lo - q.sync.Start))
		qTo := int(math.Floor(win.Hi - q.sync.Start))
		d.refineSpans(dn, q, qFrom, qTo)
	}
}

// refineSpans measures and consumes q's recorded subtraction spans of
// pass dn that fall inside chips [from, to). A span measured whole under
// the filter that subtracted it reuses its stored image; a partial
// measurement builds the image of the measured range.
func (d *decoder) refineSpans(dn dir, q *occState, from, to int) {
	mod := q.mod[dn]
	if mod == nil {
		return
	}
	res, chips := q.r.res[dn], q.p.passChips(dn)
	keep := d.spanKeep[:0]
	for _, sp := range q.spans[dn] {
		lo, hi := sp.From, sp.To
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi-lo < minTrackChips {
			keep = append(keep, sp)
			continue
		}
		if lo == sp.From && hi == sp.To && sp.ImgHi > sp.ImgLo && sp.Gen == mod.FilterGen() {
			mod.RefineSpanImage(res, d.imgs[sp.ImgLo:sp.ImgHi], sp.N0, lo, hi, sp.Snap)
		} else {
			mod.RefineSpan(res, chips, lo, hi, sp.Snap)
		}
		// Keep the unmeasured remainders of the span.
		if lo-sp.From >= minTrackChips {
			keep = append(keep, subSpan{From: sp.From, To: lo, Snap: sp.Snap})
		}
		if sp.To-hi >= minTrackChips {
			keep = append(keep, subSpan{From: hi, To: sp.To, Snap: sp.Snap})
		}
	}
	q.spans[dn] = append(q.spans[dn][:0], keep...)
	d.spanKeep = keep[:0]
}

// cleanPiece clips [winLo, winHi) by the samples where pass dn's
// residual still holds the signal of an occurrence of r other than
// own's, and returns the longest remaining piece if it is usefully long,
// else an empty interval.
func (d *decoder) cleanPiece(r *recState, winLo, winHi float64, dn dir, own *pktState) interval {
	if winHi-winLo < minTrackChips {
		return interval{}
	}
	cuts := d.cuts[:0]
	for _, o := range r.occs {
		if o.p != own {
			cuts = append(cuts, d.unsubtracted(dn, o))
		}
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
	if best.Hi-best.Lo < minTrackChips {
		return interval{}
	}
	return best
}

// prepareFwd builds the occurrence's forward black-box decoder. When the
// packet's preamble is still present in this reception's residual, the
// sync is refined against it (the §4.2.4a channel estimation for the
// sender whose preamble was initially buried in interference) and the
// equalizer is trained on it. When the preamble region has already been
// subtracted away (the packet's first decode from this reception
// happens mid-packet), the decoder instead borrows the equalizer trained
// in another reception of the same link and adopts the re-encoding
// tracker's refined frequency estimate.
func (d *decoder) prepareFwd(o *occState) {
	p := o.p
	res := o.r.res[fwd]
	if o.sub[fwd] == 0 {
		if s, ok := d.sync.Measure(res, int(math.Round(o.sync.Start)), 2, o.sync.Freq); ok {
			// Accept the refinement only if it is consistent with the
			// detection-time estimate; a wildly different Ĥ means the
			// preamble region still holds interference.
			if cmplx.Abs(s.H) > 0.25*cmplx.Abs(o.sync.H) {
				s.Freq = o.sync.Freq
				o.sync = s
			}
		}
		o.dec[fwd] = d.sc.symbolDecoder(d.cfg.PHY, o.sync, p.meta.Scheme)
		if !d.cfg.PHY.DisableEqualizer {
			if err := o.dec[fwd].TrainEqualizer(res, d.sc.preambleSymbols(d.cfg.PHY), 0); err == nil && p.eqDonor == nil {
				p.eqDonor = o
			}
		}
		return
	}
	o.sync = o.trackedSync()
	if p.eqDonor != nil && p.eqDonor.dec[fwd] != nil {
		o.dec[fwd] = p.eqDonor.dec[fwd].WithSync(o.sync)
		return
	}
	o.dec[fwd] = d.sc.symbolDecoder(d.cfg.PHY, o.sync, p.meta.Scheme)
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
	if p.front[fwd] < d.pre+hdrSyms {
		return
	}
	d.hdrBits = modem.Demodulate(d.hdrBits[:0], p.meta.Scheme, p.decided[fwd][d.pre:d.pre+hdrSyms])
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
	if hiChip-loChip < 2*minTrackChips {
		return
	}
	winLo := o.sync.Start + float64(loChip)
	winHi := o.sync.Start + float64(hiChip)
	clean := d.cleanPiece(o.r, winLo, winHi, fwd, o.p) // own signal must be present
	if !clean.empty() && clean.Hi-clean.Lo >= 2*minTrackChips {
		loChip = int(math.Ceil(clean.Lo - o.sync.Start))
		hiChip = int(math.Floor(clean.Hi - o.sync.Start))
	}
	m := d.modeler(fwd, o)
	if err := m.FitISI(o.r.res[fwd], o.p.chips[fwd], loChip, hiChip); err != nil {
		return
	}
	if shape, ok := m.Shape(o.p.shape.Taps); ok {
		o.p.shape = shape
		o.p.hasShape = true
	}
}

// kept returns the symbols [from, to) of chunk [lo, hi) of o's packet
// that pass dn's commit rule keeps; the range is empty when it keeps
// none. The rule holds back EqTaps symbols at the chunk's far edge,
// whose equalizer skirt reads samples that still hold interference, to
// be decoded again as part of the next chunk: forward the chunk's tail,
// unless it ends the packet, backward its head, unless it reaches the
// preamble.
func (d *decoder) kept(dn dir, o *occState, lo, hi int) (from, to int) {
	switch {
	case dn == fwd && hi < d.symUB(o):
		return lo, hi - d.cfg.PHY.EqTaps
	case dn == bwd && lo > d.pre:
		return lo + d.cfg.PHY.EqTaps, hi
	}
	return lo, hi
}

// commit moves pass dn's frontier past the symbols [from, to) of chunk
// [lo, hi) that the commit rule keeps, stopping the backward frontier
// at the preamble, and returns them; it reports false, leaving the
// frontier alone, when the chunk is too short to commit anything.
func (d *decoder) commit(dn dir, o *occState, lo, hi int) (from, to int, ok bool) {
	from, to = d.kept(dn, o, lo, hi)
	if to <= from {
		return 0, 0, false
	}
	if dn == fwd {
		o.p.front[fwd] = to
	} else {
		o.p.front[bwd] = max(from, d.pre)
	}
	return from, to, true
}

// passName names each pass for the debug hook.
var passName = [2]string{"fwd", "bwd"}

// decodeChunk decodes symbols [lo, hi) of o's packet in pass dn from its
// reception's residual, the backward pass in reverse, and commits what
// the commit rule keeps. In plan mode it only applies the commit rule
// (see planBackward).
func (d *decoder) decodeChunk(dn dir, o *occState, lo, hi int, plan bool) {
	p := o.p
	if plan {
		if from, to, ok := d.commit(dn, o, lo, hi); ok && d.debugHook != nil {
			d.debugHook("plan", o, from, to)
		}
		return
	}
	// Clear the chunk's sample span of every other packet's decoded
	// signal (plus skirt) up to its far edge: forward its end, backward
	// its start.
	edge := o.sync.Start + float64(hi*d.sps)
	if dn == bwd {
		edge = o.sync.Start + float64(lo*d.sps)
	}
	for _, q := range o.r.occs {
		if q.p != p {
			d.ensureSubtracted(dn, q, edge)
		}
	}
	if o.dec[dn] == nil {
		if dn == fwd {
			d.prepareFwd(o)
		} else {
			d.prepareBwd(o)
		}
	}
	from, to, ok := d.commit(dn, o, lo, hi)
	if !ok {
		return
	}
	dec, soft := o.dec[dn].DecodeRange(o.r.res[dn], lo, hi, dn == bwd)
	p.grow(d, to)
	w := cmplx.Abs(o.sync.H)
	for k := from; k < to; k++ {
		p.decided[dn][k] = dec[k-lo]
		p.soft[dn][k] = soft[k-lo]
		p.weight[dn][k] = w
	}
	p.syncChips(d, dn, from, to)
	if dn == fwd {
		d.tryHeader(p)
		d.fitShape(o, from, to)
	}
	if d.debugHook != nil {
		d.debugHook(passName[dn], o, from, to)
	}
	if d.obs != nil {
		d.obs.Emit(d.chunkEvent(obs.KindPeel, o, from, to, dn, w))
	}
	// Remove this chunk from the residual (lagged) and re-measure every
	// overlapping packet model against what remains.
	before := o.sub[dn]
	d.selfSubtract(dn, o)
	if lo, hi := min(before, o.sub[dn]), max(before, o.sub[dn]); hi > lo {
		d.refineModels(dn, o.r, o.sync.Start+float64(lo), o.sync.Start+float64(hi))
	}
}

// chunkFrom returns the chunk that runs from o's frontier in pass dn
// toward symbol edge, at most MaxChunkSymbols long.
func (d *decoder) chunkFrom(dn dir, o *occState, edge int) (lo, hi int) {
	if dn == fwd {
		lo = o.p.front[fwd]
		return lo, min(edge, lo+d.cfg.maxChunk())
	}
	hi = o.p.front[bwd]
	return max(edge, hi-d.cfg.maxChunk()), hi
}

// The decode core runs one of two successive-interference-cancellation
// policies:
//
//   - the pairwise policy — chunk order decided purely by chunk length,
//     scan order breaking ties — which every two-packet decode uses
//     unconditionally, keeping k=2 bit-identical to the original
//     decoder by construction;
//   - the generalized k-way policy for three or more simultaneous
//     emissions (§7's extension beyond the canonical pair): equal-length
//     chunks are ordered by capture/SNR margin over the strongest live
//     interferer, zero-power emissions are dropped at ingest, and the
//     stall fallback ignores interferers that are already fully decoded
//     (their signal is subtracted exactly before the forced chunk runs).
//
// margin scores an occurrence for the k-way decode order in pass dn: the
// packet's power over the strongest interferer in the same reception
// that pass dn has not finished. A finished interferer does not count —
// its image is subtracted exactly before the chunk is demodulated.
// Returns +Inf when nothing live remains, i.e. the occurrence decodes
// interference-free.
func (d *decoder) margin(dn dir, o *occState) float64 {
	blocker := 0.0
	for _, q := range o.r.occs {
		if q.p == o.p || d.finished(dn, q.p) {
			continue
		}
		if a := amp2(q); a > blocker {
			blocker = a
		}
	}
	if blocker == 0 {
		return math.Inf(1)
	}
	return amp2(o) / blocker
}

// forceCapture is the stall fallback: the paper's receiver "tries in
// parallel to use standard decoding and ZigZag, and takes whichever
// succeeds" (§4.4). When the greedy schedule of pass dn makes no
// progress — e.g. because interference inflated the weak sender's
// detection-time |Ĥ| just enough to flip the capture rule — force a
// chunk of the occurrence with the best power margin over its blockers,
// provided the margin is at least 3 dB. The chunk runs from the frontier
// toward the packet's far end. A wrong forced decode fails the checksum
// later; a right one restarts the schedule. It reports whether anything
// was forced.
//
// Under the k-way policy the margin is measured against live blockers
// only (margin): with three or more packets an interferer that is
// already fully decoded is subtracted exactly before the forced chunk
// runs, so counting it would veto forces that in fact succeed.
func (d *decoder) forceCapture(dn dir, plan bool) bool {
	var best *occState
	bestRatio := 2.0 // ≥3 dB margin required
	for _, r := range d.recs {
		for _, o := range r.occs {
			p := o.p
			if !d.runnable(dn, p) || dn == fwd && d.symUB(o)-p.front[fwd] <= d.cfg.PHY.EqTaps {
				continue
			}
			var ratio float64
			if d.kway {
				ratio = d.margin(dn, o)
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
	edge := d.symUB(best)
	if dn == bwd {
		edge = d.pre
	}
	lo, hi := d.chunkFrom(dn, best, edge)
	if d.obs != nil && !plan {
		d.obs.Emit(d.chunkEvent(obs.KindForce, best, lo, hi, dn, bestRatio))
	}
	before := best.p.front[dn]
	d.decodeChunk(dn, best, lo, hi, plan)
	return best.p.front[dn] != before
}

// schedule executes the paper's greedy schedule (§4.5) in pass dn until
// no chunk makes progress, decoding the largest available chunk first,
// and returns its rounds. Taking the biggest chunk each round (instead
// of any positive sliver) avoids committing few-symbol dribbles whose
// boundary effects degrade the decisions; small chunks are taken only
// when nothing better exists. Under the k-way policy, equal-length
// chunks are ordered by capture/SNR margin: the chunk whose packet
// stands furthest above its live interferers decodes first, so the
// subtraction error injected into the shared residual is smallest.
func (d *decoder) schedule(dn dir, plan bool) int {
	iters := 0
	for {
		iters++
		var best *occState
		bestLo, bestHi, bestGain := 0, 0, 0
		bestMargin := 0.0
		for _, r := range d.recs {
			for _, o := range r.occs {
				if !d.runnable(dn, o.p) {
					continue
				}
				var edge int
				if dn == fwd {
					edge = d.cleanExtentFwd(o)
				} else {
					edge = d.cleanExtentBwd(o)
				}
				lo, hi := d.chunkFrom(dn, o, edge)
				if hi <= lo {
					continue
				}
				from, to := d.kept(dn, o, lo, hi)
				gain := to - from
				margin := 0.0
				if d.kway {
					margin = d.margin(dn, o)
				}
				if gain > bestGain || (d.kway && best != nil && gain == bestGain && margin > bestMargin) {
					best, bestLo, bestHi, bestGain, bestMargin = o, lo, hi, gain, margin
				}
			}
		}
		if best == nil {
			if d.forceCapture(dn, plan) {
				continue
			}
			break
		}
		if d.obs != nil && !plan {
			ev := d.chunkEvent(obs.KindSchedule, best, bestLo, bestHi, dn, bestMargin)
			ev.AppendList(bestGain)
			d.obs.Emit(ev)
		}
		before := best.p.front[dn]
		d.decodeChunk(dn, best, bestLo, bestHi, plan)
		if best.p.front[dn] == before {
			// No commit (pathological sliver): avoid spinning.
			if !d.forceCapture(dn, plan) {
				break
			}
		}
	}
	return iters
}

// runForward runs the forward pass.
func (d *decoder) runForward() { d.iters += d.schedule(fwd, false) }
