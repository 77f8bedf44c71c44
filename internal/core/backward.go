package core

import (
	"math"

	"zigzag/internal/dsp"
)

// The backward pass (§4.3b) runs the greedy chunk schedule a second
// time, from the packet tails, on fresh copies of the receptions. Every
// symbol thereby gets a second, largely independent estimate —
// typically from the *other* collision than the forward pass used — and
// MRC-combining the two is what makes ZigZag's BER lower than
// interference-free transmission.
//
// Both passes run the same code: the schedule, the forced-capture
// fallback, the chunk decode and the subtraction and tracking steps in
// decode.go take the pass direction. This file holds the rules only the
// backward pass has: the exclusion of packets whose length was never
// learned, the tail-side subtraction limit, the clean extent, the
// decoder fork, the plan and runBackward.
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

// passChips returns the chips pass dn subtracts for p: its own
// decisions, except that the backward pass subtracts an excluded
// packet's forward ones.
func (p *pktState) passChips(dn dir) []complex128 {
	if dn == bwd && p.bwdExcluded() {
		return p.chips[fwd]
	}
	return p.chips[dn]
}

// bwdSubFromChip returns the first chip of q's signal that is currently
// subtractable from the tail side: everything from the backward-decoded
// frontier to the end, plus the whole packet once the frontier reaches
// the (a priori known) preamble.
func (d *decoder) bwdSubFromChip(q *occState) int {
	if q.p.bwdExcluded() {
		return q.p.front[fwd] * d.sps // fall back to forward knowledge
	}
	if q.p.front[bwd] <= d.pre {
		return 0
	}
	return q.p.front[bwd] * d.sps
}

// cleanExtentBwd returns the smallest symbol index lo such that symbols
// [lo, p.front[bwd]) can be decoded from o's reception in the backward
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
		if amp2(q)*captureRatio <= pPow {
			continue
		}
		limit := int(math.Ceil((dirtyHi-o.sync.Start)/float64(d.sps))) + d.marginSym
		if limit > lo {
			lo = limit
		}
	}
	if lo > p.front[bwd] {
		return p.front[bwd]
	}
	return lo
}

// prepareBwd builds the backward black-box decoder: a fork of the
// forward decoder (keeping its trained equalizer) re-anchored to the
// refined frequency estimate, with fresh phase-tracking state.
func (d *decoder) prepareBwd(o *occState) {
	s := o.trackedSync()
	switch {
	case o.dec[fwd] != nil:
		o.dec[bwd] = o.dec[fwd].WithSync(s)
	case o.p.eqDonor != nil && o.p.eqDonor.dec[fwd] != nil:
		o.dec[bwd] = o.p.eqDonor.dec[fwd].WithSync(s)
	default:
		o.dec[bwd] = d.sc.symbolDecoder(d.cfg.PHY, s, o.p.meta.Scheme)
	}
}

// anchorTails puts the backward frontier of every packet that takes
// part in the pass at its tail, and reports whether any does.
func (d *decoder) anchorTails() bool {
	some := false
	for _, p := range d.pkts {
		if !p.bwdExcluded() {
			p.front[bwd] = p.nsym
			some = true
		}
	}
	return some
}

// runBackward runs the backward pass on fresh residuals.
func (d *decoder) runBackward() {
	if d.cfg.DisableBackward {
		return
	}
	d.bwdRan = true
	for _, r := range d.recs {
		r.res[bwd] = dsp.Ensure(r.res[bwd], len(r.raw))
		copy(r.res[bwd], r.raw)
		for _, o := range r.occs {
			o.sub[bwd] = d.symUB(o) * d.sps
		}
	}
	if d.anchorTails() {
		d.iters += d.schedule(bwd, false)
	}
}

// planBackward reports whether the backward pass would decode some
// packet down to the preamble, by running its schedule in plan mode
// (see the top of this file): every choice the schedule makes reads
// geometry only, so plan mode, each chunk moving its frontier by the
// commit rule alone, makes the same choices as the pass that decodes.
// It touches no residual, span, modeler, decoder, event or iteration
// count, and leaves every frontier as it found it.
func (d *decoder) planBackward() bool {
	if d.cfg.DisableBackward {
		return false
	}
	saved := d.downTo[:0]
	for _, p := range d.pkts {
		saved = append(saved, p.front[bwd])
	}
	if d.anchorTails() {
		d.schedule(bwd, true)
	}
	reached := false
	for i, p := range d.pkts {
		if d.finished(bwd, p) {
			reached = true
		}
		p.front[bwd] = saved[i]
	}
	d.downTo = saved[:0]
	return reached
}
