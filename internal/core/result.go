package core

import (
	"errors"
	"fmt"

	"zigzag/internal/dsp"
	"zigzag/internal/frame"
	"zigzag/internal/modem"
)

// PacketResult is the decoding outcome for one packet.
type PacketResult struct {
	// Frame is the checksum-valid frame, nil if no candidate passed.
	Frame *frame.Frame

	// Bits is the best available bit estimate (the MRC combination when
	// the backward pass ran, else the forward bits), always full frame
	// length when the length was known or learned — usable for BER
	// accounting even on failure.
	Bits []byte

	// BitsForward and BitsBackward are the per-direction estimates.
	// BitsBackward is nil when the backward pass did not run: DecodeWith
	// runs it only when some forward candidate failed its checksum or
	// left its packet incomplete.
	BitsForward  []byte
	BitsBackward []byte

	// Source tells which candidate produced Frame: "forward" when the
	// forward pass alone decoded every packet of known length, else the
	// first to pass of "mrc", "forward", "backward"; "" on failure.
	Source string

	// Complete reports whether the forward pass decoded every symbol.
	Complete bool

	// Err explains a failure (nil when Frame is set).
	Err error
}

// OK reports whether the packet decoded to a checksum-valid frame.
func (p *PacketResult) OK() bool { return p.Frame != nil && p.Err == nil }

// Result is the outcome of one joint decode.
type Result struct {
	Packets []PacketResult
	// Iterations counts greedy scheduling rounds across the passes that
	// ran.
	Iterations int
	// Residuals are the forward-pass residual buffers, one per
	// reception: the received samples minus everything that was decoded
	// and subtracted. The online receiver re-runs preamble detection on
	// them to find packets whose preambles were buried under stronger
	// senders (§5.1d: "even when the standard decoding succeeds we still
	// check whether we can decode a second packet with lower power").
	Residuals [][]complex128
}

// AllOK reports whether every packet decoded successfully.
func (r *Result) AllOK() bool {
	for i := range r.Packets {
		if !r.Packets[i].OK() {
			return false
		}
	}
	return true
}

// assemble builds the per-packet results after both passes.
func (d *decoder) assemble() *Result {
	res := &Result{Iterations: d.iters}
	for _, p := range d.pkts {
		res.Packets = append(res.Packets, d.assemblePacket(p))
	}
	for _, r := range d.recs {
		res.Residuals = append(res.Residuals, r.res)
	}
	return res
}

func (d *decoder) assemblePacket(p *pktState) PacketResult {
	var pr PacketResult
	if p.nsym < 0 {
		pr.Err = fmt.Errorf("zigzag: packet %d: length never learned: %w", p.id, ErrNoProgress)
		// Best-effort forward bits for diagnostics.
		if p.fwdUpTo > d.pre {
			pr.BitsForward = modem.Demodulate(nil, p.meta.Scheme, p.decided[d.pre:p.fwdUpTo])
			pr.Bits = pr.BitsForward
		}
		return pr
	}
	pr.Complete = p.fwdUpTo >= p.nsym
	dataSyms := p.nsym - d.pre

	trim := func(bits []byte) []byte {
		if len(bits) > p.totalBits {
			return bits[:p.totalBits]
		}
		return bits
	}
	pr.BitsForward = trim(modem.Demodulate(nil, p.meta.Scheme, p.decided[d.pre:p.nsym]))

	bwdRan := d.bwdRan && p.bwdDownTo <= d.pre
	var mrcBits []byte
	if bwdRan {
		pr.BitsBackward = trim(modem.Demodulate(nil, p.meta.Scheme, p.decidedB[d.pre:p.nsym]))
		d.combBuf = dsp.Ensure(d.combBuf, dataSyms)
		comb := d.combBuf
		for i := 0; i < dataSyms; i++ {
			k := d.pre + i
			comb[i] = modem.MRC(p.soft[k], p.weight[k], p.softB[k], p.weightB[k])
			comb[i] = modem.Slice(p.meta.Scheme, comb[i])
		}
		mrcBits = trim(modem.Demodulate(nil, p.meta.Scheme, comb))
	}

	// Candidate order: the MRC combination is the paper's primary
	// output; the per-direction estimates are fallbacks (§4.3).
	type cand struct {
		name string
		bits []byte
	}
	cands := []cand{}
	if mrcBits != nil {
		cands = append(cands, cand{"mrc", mrcBits})
	}
	cands = append(cands, cand{"forward", pr.BitsForward})
	if pr.BitsBackward != nil {
		cands = append(cands, cand{"backward", pr.BitsBackward})
	}
	for _, c := range cands {
		f, err := frame.Parse(c.bits)
		if err != nil {
			continue
		}
		pr.Frame = f
		pr.Source = c.name
		pr.Bits = c.bits // checksum-verified: this is the packet
		break
	}
	// Best-effort bits for BER accounting when every candidate failed.
	if pr.Bits == nil {
		if mrcBits != nil {
			pr.Bits = mrcBits
		} else {
			pr.Bits = pr.BitsForward
		}
	}
	if pr.Frame == nil {
		if !pr.Complete {
			pr.Err = fmt.Errorf("zigzag: packet %d incomplete (%d/%d symbols): %w",
				p.id, p.fwdUpTo, p.nsym, ErrNoProgress)
		} else {
			pr.Err = fmt.Errorf("zigzag: packet %d: %w", p.id, errAllCandidatesFailed)
		}
	}
	return pr
}

var errAllCandidatesFailed = errors.New("no candidate passed the checksum")

// Decode jointly decodes a set of receptions known (or suspected) to
// contain the given packets. It is the main entry point of ZigZag
// decoding: pass two matched collisions of the same two packets for the
// paper's canonical case (§4.2), more receptions/packets for the §4.5
// general case, or a single reception for the capture /
// interference-cancellation patterns of Fig 4-1d/e/f.
//
// Decode builds its working state from scratch each call; Monte-Carlo
// loops thread a reusable *Scratch through DecodeWith instead.
func Decode(cfg Config, metas []PacketMeta, recs []*Reception) (*Result, error) {
	return DecodeWith(nil, cfg, metas, recs)
}

// DecodeWith is Decode running on a reusable decode session. The
// returned Result's Packets own their memory, but Residuals alias sc's
// residual buffers: they stay valid only until the next DecodeWith call
// on the same Scratch. A nil sc decodes on a fresh one-shot session,
// which is exactly Decode. The forward pass always runs; the backward
// pass runs only when it can change the outcome (needsBackward).
// Bit-identity between the two paths — pooled
// Modelers/SymbolDecoders and recycled arenas included — is pinned by
// the decode-session tests.
func DecodeWith(sc *Scratch, cfg Config, metas []PacketMeta, recs []*Reception) (*Result, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	d, err := sc.newDecoder(cfg, metas, recs)
	if err != nil {
		return nil, err
	}
	d.runForward()
	if d.needsBackward() {
		d.runBackward()
	}
	return d.assemble(), nil
}

// needsBackward reports whether the backward pass can change this
// decode's outcome. It can only for a packet of known length that the
// forward pass left incomplete, or whose forward bits, trimmed to the
// frame, fail validation. When every such forward candidate is a valid
// frame the receiver takes it — it "takes whichever succeeds" (§4.4) —
// and the pass would change no frame and no bit. A packet whose length
// was never learned never forces the pass: the pass excludes it
// (bwdExcluded), and its result reads forward state only.
func (d *decoder) needsBackward() bool {
	for _, p := range d.pkts {
		if p.nsym < 0 {
			continue
		}
		if p.fwdUpTo < p.nsym {
			return true
		}
		d.fwdBits = modem.Demodulate(d.fwdBits[:0], p.meta.Scheme, p.decided[d.pre:p.nsym])
		if len(d.fwdBits) > p.totalBits {
			d.fwdBits = d.fwdBits[:p.totalBits]
		}
		if !frame.Check(d.fwdBits) {
			return true
		}
	}
	return false
}
