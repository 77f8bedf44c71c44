package core

import "math"

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

// fwdMargin scores an occurrence for the k-way decode order: the
// packet's power over the strongest interferer in the same reception
// that still has un-decoded signal in the forward direction. A fully
// decoded interferer does not count — its image is subtracted exactly
// before the chunk is demodulated. Returns +Inf when nothing live
// remains, i.e. the occurrence decodes interference-free.
func (d *decoder) fwdMargin(o *occState) float64 {
	blocker := 0.0
	for _, q := range o.r.occs {
		if q.p == o.p {
			continue
		}
		if q.p.nsym >= 0 && q.p.fwdUpTo >= q.p.nsym {
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

// bwdMargin mirrors fwdMargin for the backward pass: an interferer whose
// backward frontier has reached the preamble is fully subtracted and
// does not block.
func (d *decoder) bwdMargin(o *occState) float64 {
	blocker := 0.0
	for _, q := range o.r.occs {
		if q.p == o.p {
			continue
		}
		if !q.p.bwdExcluded() && q.p.bwdDownTo <= d.pre {
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
