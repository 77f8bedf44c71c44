package core

import (
	"math"

	"zigzag/internal/dsp"
	"zigzag/internal/obs"
	"zigzag/internal/phy"
)

// The backward pass (§4.3b) re-runs the greedy chunk schedule from the
// packet tails on fresh copies of the receptions. Every symbol thereby
// gets a second, largely independent estimate — typically from the
// *other* collision than the forward pass used — and MRC-combining the
// two is what makes ZigZag's BER lower than interference-free
// transmission.
//
// The pass runs only when it can matter, which DecodeWith checks twice
// before running it:
//
//   - The receiver "takes whichever succeeds" (§4.4), so when the
//     forward candidate of every packet of known length is complete and
//     passes its checksum, the pass is skipped (decoder.needsBackward):
//     the result keeps the forward frames and bits, and reports Source
//     "forward" with no backward bits.
//   - A packet's result reads backward state only when the pass decoded
//     it down to the preamble. The schedule reads geometry alone — each
//     occurrence's start and |Ĥ| as the forward pass left them, packet
//     lengths, the forward frontier of packets whose length was never
//     learned, and the config — never a decoded value. So the scheduler
//     first runs in plan mode, moving only the frontiers by the commit
//     rule, and the pass runs for real only when the plan brings some
//     packet to the preamble (decoder.planBackward). A skipped pass
//     changes no frame, bit or residual; only Iterations and the
//     direction-1 events of the pass are absent.

// bwdExcluded reports whether a packet cannot participate in the
// backward pass (its length never became known, so its tail is
// undefined).
func (p *pktState) bwdExcluded() bool { return p.nsym < 0 }

// bwdSubFromChip returns the first chip of q's signal that is currently
// subtractable from the tail side: everything from the backward-decoded
// frontier to the end, plus the whole packet once the frontier reaches
// the (a priori known) preamble.
func (d *decoder) bwdSubFromChip(q *occState) int {
	if q.p.bwdExcluded() {
		return q.p.fwdUpTo * d.sps // fall back to forward knowledge
	}
	if q.p.bwdDownTo <= d.pre {
		return 0
	}
	return q.p.bwdDownTo * d.sps
}

// cleanExtentBwd returns the smallest symbol index lo such that symbols
// [lo, p.bwdDownTo) can be decoded from o's reception in the backward
// direction.
func (d *decoder) cleanExtentBwd(o *occState) int {
	p := o.p
	lo := d.pre
	pPow := amp2(o)
	for _, q := range o.r.occs {
		if q.p == p {
			continue
		}
		dirtyLo := q.sync.Start
		dirtyHi := q.sync.Start + float64(d.bwdSubFromChip(q))
		if dirtyHi <= dirtyLo {
			continue
		}
		if amp2(q)*d.cfg.captureRatio() <= pPow {
			continue
		}
		limit := int(math.Ceil((dirtyHi-o.sync.Start)/float64(d.sps))) + d.marginSym
		if limit > lo {
			lo = limit
		}
	}
	if lo > p.bwdDownTo {
		return p.bwdDownTo
	}
	return lo
}

// modelerB lazily builds the backward re-encoder, reusing the forward
// pass's refined synchronization and frequency estimate when available.
func (d *decoder) modelerB(o *occState) *phy.Modeler {
	if o.modB == nil {
		s := o.sync
		if o.mod != nil {
			s.Freq = o.mod.Freq()
		}
		o.modB = d.sc.modeler(d.cfg.PHY, s)
		if o.p.hasShape {
			o.modB.SetShape(o.p.shape)
		}
	}
	return o.modB
}

// ensureSubtractedBwd extends q's subtracted suffix in its reception's
// backward residual down to fromSample.
func (d *decoder) ensureSubtractedBwd(q *occState, fromSample float64) {
	limitChip := d.bwdSubFromChip(q)
	need := int(math.Floor(fromSample-q.sync.Start)) - d.marginSym*d.sps
	if need < limitChip {
		need = limitChip
	}
	if need >= q.subChipB {
		return
	}
	chips := q.p.chipsB
	if q.p.bwdExcluded() {
		chips = q.p.chips
	}
	q.spansB = append(q.spansB, d.subtract(d.modelerB(q), q.r.resB, chips, need, q.subChipB))
	q.subChipB = need
}

// selfSubtractBwd subtracts o's own backward-committed chips from its
// reception's backward residual, lagging the frontier by the skirt
// margin.
func (d *decoder) selfSubtractBwd(o *occState) {
	p := o.p
	need := p.bwdDownTo*d.sps + 2*d.marginSym*d.sps
	if p.bwdDownTo <= d.pre {
		need = 0
	}
	if need >= o.subChipB {
		return
	}
	o.spansB = append(o.spansB, d.subtract(d.modelerB(o), o.r.resB, p.chipsB, need, o.subChipB))
	o.subChipB = need
}

// refineModelsBwd mirrors refineModelsFwd for the backward residuals.
func (d *decoder) refineModelsBwd(r *recState, winLo, winHi float64) {
	win := d.cleanPiece(r, winLo, winHi, func(o *occState) interval {
		return interval{
			o.sync.Start,
			o.sync.Start + float64(o.subChipB),
		}
	})
	if win.empty() {
		return
	}
	for _, q := range r.occs {
		qFrom := int(math.Ceil(win.Lo - q.sync.Start))
		qTo := int(math.Floor(win.Hi - q.sync.Start))
		d.refineSpans(q, qFrom, qTo, true)
	}
}

// prepareB builds the backward black-box decoder: a fork of the forward
// decoder (keeping its trained equalizer) re-anchored to the refined
// frequency estimate, with fresh phase-tracking state.
func (d *decoder) prepareB(o *occState) {
	if o.preparedB {
		return
	}
	o.preparedB = true
	s := o.sync
	if o.mod != nil {
		s.Freq = o.mod.Freq()
	}
	switch {
	case o.dec != nil:
		o.decB = o.dec.WithSync(s)
	case o.p.eqDonor != nil && o.p.eqDonor.dec != nil:
		o.decB = o.p.eqDonor.dec.WithSync(s)
	default:
		o.decB = d.sc.symbolDecoder(d.cfg.PHY, s, o.p.meta.Scheme)
	}
}

// commitBwd applies the backward commit rule to chunk [lo, hi) of p:
// all but the holdback head commits, the whole chunk once it reaches
// the preamble, and the frontier moves to the first committed symbol,
// clamped at the preamble. It returns that symbol, or false, leaving the
// frontier alone, when the chunk is too short to commit anything.
func (d *decoder) commitBwd(p *pktState, lo, hi int) (int, bool) {
	commit := lo
	if lo > d.pre {
		commit = lo + d.cfg.holdback()
		if commit >= hi {
			return 0, false
		}
	}
	p.bwdDownTo = max(commit, d.pre)
	return commit, true
}

// decodeChunkBwd decodes symbols [lo, hi) in reverse and commits all but
// the holdback head. In plan mode it only applies the commit rule.
func (d *decoder) decodeChunkBwd(o *occState, lo, hi int, plan bool) {
	p := o.p
	if plan {
		if commit, ok := d.commitBwd(p, lo, hi); ok && d.debugHook != nil {
			d.debugHook("plan", o, commit, hi)
		}
		return
	}
	startSample := o.sync.Start + float64(lo*d.sps)
	for _, q := range o.r.occs {
		if q.p != p {
			d.ensureSubtractedBwd(q, startSample)
		}
	}
	d.prepareB(o)
	commit, ok := d.commitBwd(p, lo, hi)
	if !ok {
		return
	}
	dec, soft := o.decB.DecodeRange(o.r.resB, lo, hi, true)
	w := amp(o)
	for k := commit; k < hi; k++ {
		p.decidedB[k] = dec[k-lo]
		p.softB[k] = soft[k-lo]
		p.weightB[k] = w
	}
	p.syncChipsB(d, commit, hi)
	if d.debugHook != nil {
		d.debugHook("bwd", o, commit, hi)
	}
	if d.obs != nil {
		d.emitChunk(obs.KindPeel, o, commit, hi, 1, amp(o))
	}
	preSub := o.subChipB
	d.selfSubtractBwd(o)
	if o.subChipB < preSub {
		winLo := o.sync.Start + float64(o.subChipB)
		winHi := o.sync.Start + float64(preSub)
		d.refineModelsBwd(o.r, winLo, winHi)
	}
}

// forceCaptureBwd mirrors forceCapture for the backward pass, including
// the k-way live-blocker margin (see bwdMargin).
func (d *decoder) forceCaptureBwd(plan bool) bool {
	var best *occState
	bestRatio := 2.0
	for _, r := range d.recs {
		for _, o := range r.occs {
			p := o.p
			if p.bwdExcluded() || p.bwdDownTo <= d.pre {
				continue
			}
			var ratio float64
			if d.kway {
				ratio = d.bwdMargin(o)
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
	hi := best.p.bwdDownTo
	lo := hi - d.cfg.maxChunk()
	if lo < d.pre {
		lo = d.pre
	}
	if d.obs != nil && !plan {
		d.emitChunk(obs.KindForce, best, lo, hi, 1, bestRatio)
	}
	before := best.p.bwdDownTo
	d.decodeChunkBwd(best, lo, hi, plan)
	return best.p.bwdDownTo < before
}

// runBackward executes the mirrored greedy schedule.
func (d *decoder) runBackward() int {
	if d.cfg.DisableBackward {
		return 0
	}
	d.bwdRan = true
	// Fresh residuals and tail-anchored state.
	for _, r := range d.recs {
		r.resB = dsp.Ensure(r.resB, len(r.raw))
		copy(r.resB, r.raw)
		for _, o := range r.occs {
			ub := d.symUB(o)
			o.subChipB = ub * d.sps
		}
	}
	iters := d.scheduleBackward(false)
	d.iters += iters
	return iters
}

// planBackward reports whether the backward pass would decode some
// packet down to the preamble, by running its schedule in plan mode
// (see the top of this file). It touches no residual, span, modeler,
// decoder, event or iteration count, and leaves every frontier as it
// found it.
func (d *decoder) planBackward() bool {
	if d.cfg.DisableBackward {
		return false
	}
	saved := d.downTo[:0]
	for _, p := range d.pkts {
		saved = append(saved, p.bwdDownTo)
	}
	d.scheduleBackward(true)
	reached := false
	for i, p := range d.pkts {
		if !p.bwdExcluded() && p.bwdDownTo <= d.pre {
			reached = true
		}
		p.bwdDownTo = saved[i]
	}
	d.downTo = saved[:0]
	return reached
}

// scheduleBackward runs the mirrored greedy schedule from the packet
// tails and returns its rounds. Every choice it makes reads geometry
// only, so plan mode — each chunk moving its frontier by the commit
// rule alone — makes the same choices as the pass that decodes.
func (d *decoder) scheduleBackward(plan bool) int {
	anyRunnable := false
	for _, p := range d.pkts {
		if p.bwdExcluded() {
			continue
		}
		p.bwdDownTo = p.nsym
		anyRunnable = true
	}
	if !anyRunnable {
		return 0
	}
	iters := 0
	for {
		iters++
		var best *occState
		bestLo, bestHi, bestGain := 0, 0, 0
		bestMargin := 0.0
		for _, r := range d.recs {
			for _, o := range r.occs {
				p := o.p
				if p.bwdExcluded() || p.bwdDownTo <= d.pre {
					continue
				}
				hi := p.bwdDownTo
				lo := d.cleanExtentBwd(o)
				if lo >= hi {
					continue
				}
				if hi-lo > d.cfg.maxChunk() {
					lo = hi - d.cfg.maxChunk()
				}
				gain := hi - lo
				if lo > d.pre {
					gain -= d.cfg.holdback()
				}
				margin := 0.0
				if d.kway {
					margin = d.bwdMargin(o)
				}
				if gain > bestGain || (d.kway && best != nil && gain == bestGain && margin > bestMargin) {
					best, bestLo, bestHi, bestGain, bestMargin = o, lo, hi, gain, margin
				}
			}
		}
		if best == nil {
			if d.forceCaptureBwd(plan) {
				continue
			}
			break
		}
		if d.obs != nil && !plan {
			ev := obs.Event{Kind: obs.KindSchedule, Rec: d.obsRec, A: int64(best.p.id), B: int64(bestLo), C: int64(bestHi), F0: bestMargin}
			ev.AppendList(best.r.id)
			ev.AppendList(1)
			ev.AppendList(bestGain)
			d.obs.Emit(ev)
		}
		before := best.p.bwdDownTo
		d.decodeChunkBwd(best, bestLo, bestHi, plan)
		if best.p.bwdDownTo >= before {
			if !d.forceCaptureBwd(plan) {
				break
			}
		}
	}
	return iters
}

func amp(o *occState) float64 { return math.Sqrt(amp2(o)) }
